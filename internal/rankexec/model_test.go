package rankexec

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// fuzzCase is one decoded input of FuzzExecutorMatchesModel: p founding
// tasks run steps rounds of the mailbox pattern — post a token to the
// partner, then wait for one's own — over a partner permutation. Admitted
// tasks pair up among themselves the same way.
type fuzzCase struct {
	p, steps, workers, budget int
	partner                   []int
	// admitK tasks are admitted by task admitBy at its step admitAt (none
	// when admitK is 0).
	admitK, admitBy, admitAt int
	// Task skipBy skips its post at step skipAt: a true deadlock (none
	// when skipBy is negative).
	skipBy, skipAt int
	strays         []stray
}

// stray is an UnparkBatch of arbitrary founding tasks — running, pending,
// parked or done, whatever they are then — by task by at step at.
type stray struct {
	by, at int
	ids    []int
}

func decodeCase(data []byte) fuzzCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := fuzzCase{p: 1 + next()%9, steps: 1 + next()%16, workers: 1 + next()%3, budget: next() % 3, skipBy: -1}
	if b := next(); b%2 == 1 {
		c.admitK, c.admitBy, c.admitAt = 1+b/2%2, next()%c.p, next()%c.steps
	}
	if b := next(); b%4 == 3 {
		c.skipBy, c.skipAt = next()%c.p, next()%c.steps
	}
	c.partner = make([]int, c.p)
	for i := range c.partner {
		c.partner[i] = i
	}
	for i := c.p - 1; i > 0; i-- {
		j := next() % (i + 1)
		c.partner[i], c.partner[j] = c.partner[j], c.partner[i]
	}
	for len(data) > 0 && len(c.strays) < 8 {
		s := stray{by: next() % c.p, at: next() % c.steps}
		for k := 1 + next()%2; k > 0; k-- {
			s.ids = append(s.ids, next()%c.p)
		}
		c.strays = append(c.strays, s)
	}
	return c
}

func (c *fuzzCase) partnerOf(id int) int {
	if id < c.p {
		return c.partner[id]
	}
	return c.p + (id-c.p+1)%c.admitK
}

// act performs task id's step before its wait: the Admit, the post (unless
// skipped) and the strays, in that order.
func (c *fuzzCase) act(id, step int, admit func(), post func(to int), unpark func(ids []int)) {
	if c.admitK > 0 && id == c.admitBy && step == c.admitAt {
		admit()
	}
	if id != c.skipBy || step != c.skipAt {
		post(c.partnerOf(id))
	}
	for _, s := range c.strays {
		if s.by == id && s.at == step {
			unpark(s.ids)
		}
	}
}

// outcome is what a run — real or modelled — observed. order logs 2·id
// when a task starts and 2·id+1 whenever its Park returns.
type outcome struct {
	order                    []int
	parks, handoffs, wakeups int64
	mailWakes, parkCalls     int64
	dead                     []int
}

// model is the executor at Workers=1 without a budget, written as the
// sequential FIFO machine it must be: one slot, one deque; a park or a
// finish hands the slot to the deque head, a wake appends to the tail, an
// Admit appends the new tasks. What is left parked when the deque drains
// is the deadlock verdict.
func model(c fuzzCase) (m outcome) {
	type mtask struct {
		state                         uint8
		wake, started, waiting, acted bool
		step, tokens                  int
	}
	ts := make([]mtask, c.p+c.admitK)
	n := c.p
	var q []int
	for id := 0; id < n; id++ {
		q = append(q, id)
	}
	unpark := func(ids []int) {
		for _, id := range ids {
			switch t := &ts[id]; t.state {
			case stateParked:
				t.state = stateRunnable
				q = append(q, id)
			case stateDone:
				continue
			default:
				t.wake = true
			}
			m.wakeups++
		}
	}
	admit := func() {
		for k := 0; k < c.admitK; k++ {
			q = append(q, n)
			n++
		}
	}
	post := func(to int) {
		ts[to].tokens++
		if ts[to].waiting {
			ts[to].waiting = false
			m.mailWakes++
			unpark([]int{to})
		}
	}
	for len(q) > 0 {
		id := q[0]
		q = q[1:]
		t := &ts[id]
		if t.started {
			m.order = append(m.order, 2*id+1)
		} else {
			t.started = true
			m.order = append(m.order, 2*id)
		}
		t.state = stateRunning
	run:
		for t.step < c.steps {
			if !t.acted {
				c.act(id, t.step, admit, post, unpark)
				t.acted = true
			}
			for t.tokens == 0 {
				t.waiting = true
				m.parkCalls++
				if !t.wake {
					t.state = stateParked
					m.parks++
					if len(q) > 0 {
						m.handoffs++
					}
					break run
				}
				t.wake = false
				m.order = append(m.order, 2*id+1)
			}
			t.tokens--
			t.step++
			t.acted = false
		}
		if t.state == stateRunning {
			t.state = stateDone
		}
	}
	for id := 0; id < n; id++ {
		if ts[id].state == stateParked {
			m.dead = append(m.dead, id)
		}
	}
	return m
}

// runCase runs the case on the real executor.
func runCase(t *testing.T, c fuzzCase) (r outcome, budgetLeft int) {
	boxes := newTokenBoxes(c.p + c.admitK)
	var logMu sync.Mutex
	logf := func(v int) {
		logMu.Lock()
		r.order = append(r.order, v)
		logMu.Unlock()
	}
	opts := Options{Workers: c.workers, OnDeadlock: func(parked []int) {
		logMu.Lock()
		if r.dead == nil {
			r.dead = append([]int{}, parked...)
		}
		logMu.Unlock()
		panic(errDeadlock)
	}}
	fb := &fakeBudget{cap: c.budget}
	if c.budget > 0 {
		opts.Budget = fb
	}
	var ex *Executor
	ex = New(c.p, func(id int) {
		defer func() {
			if v := recover(); v != nil && v != errDeadlock {
				panic(v)
			}
		}()
		logf(2 * id)
		for step := 0; step < c.steps; step++ {
			c.act(id, step, func() { ex.Admit(c.admitK) },
				func(to int) { boxes.post(ex, to) }, ex.UnparkBatch)
			boxes.wait(ex, id, func() { logf(2*id + 1) })
		}
	}, opts)
	done := make(chan struct{})
	go func() {
		ex.Start()
		ex.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%+v: executor hung", c)
	}
	st := ex.Snapshot()
	r.parks, r.handoffs, r.wakeups = st.Parks, st.Handoffs, st.Wakeups
	r.mailWakes, r.parkCalls = boxes.wakes, boxes.parkCalls
	return r, fb.outstanding()
}

const errDeadlock = "fuzz: deadlock"

// FuzzExecutorMatchesModel drives the executor with the mailbox pattern
// under stray wakes, a mid-run Admit, Workers 1–3 and budgets of 0–2
// extras. At Workers=1 without a budget the resume order and every count
// must equal the sequential FIFO model's; at every setting all tasks
// finish (no hang, no verdict), every wake is accounted for, no budget
// unit leaks, and a seeded deadlock ends in the verdict naming exactly the
// ids the model leaves parked — which, the tasks being a Kahn network of
// blocking token reads, is the same set under any schedule.
func FuzzExecutorMatchesModel(f *testing.F) {
	f.Add([]byte{}) // the named seeds are under testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCase(data)
		want := model(c)
		got, left := runCase(t, c)
		if left != 0 {
			t.Fatalf("%+v: %d budget units outstanding after Wait", c, left)
		}
		if !reflect.DeepEqual(got.dead, want.dead) {
			t.Fatalf("%+v: verdict named %v, model leaves %v parked", c, got.dead, want.dead)
		}
		if c.workers == 1 && c.budget == 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Workers=1 run diverges from the FIFO model:\n got %+v\nwant %+v", c, got, want)
		}
		if want.dead != nil {
			return
		}
		if got.parks > got.parkCalls || got.handoffs > got.parks {
			t.Fatalf("%+v: %d parks, %d handoffs of %d Park calls", c, got.parks, got.handoffs, got.parkCalls)
		}
		if len(c.strays) == 0 && (got.wakeups != got.mailWakes || got.wakeups != got.parkCalls) {
			// One wake per wait episode, ending exactly one Park call.
			t.Fatalf("%+v: %d wakeups, %d posted wakes, %d Park calls", c, got.wakeups, got.mailWakes, got.parkCalls)
		}
		if c.workers == 1 && c.budget == 0 && len(c.strays) == 0 && got.parks != got.wakeups {
			t.Fatalf("%+v: Parks = %d, Wakeups = %d on one slot", c, got.parks, got.wakeups)
		}
	})
}
