package vmpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests check the collectives against sequential reference
// computations for arbitrary inputs and communicator sizes.

// refConfig bounds quick-check sizes so the suite stays fast.
var refConfig = &quick.Config{MaxCount: 25}

func TestAllreduceMatchesSequential(t *testing.T) {
	f := func(seed int64, pRaw uint8, lenRaw uint8) bool {
		p := int(pRaw)%7 + 1
		l := int(lenRaw)%5 + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([][]float64, p)
		want := make([]float64, l)
		for r := range data {
			data[r] = make([]float64, l)
			for i := range data[r] {
				data[r][i] = rng.NormFloat64()
				want[i] += data[r][i]
			}
		}
		st := Run(Config{Ranks: p}, func(c *Comm) {
			c.SetResult(Allreduce(c, data[c.Rank()], Sum[float64]))
		})
		for r := 0; r < p; r++ {
			got := st.Values[r].([]float64)
			for i := range want {
				if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, refConfig); err != nil {
		t.Error(err)
	}
}

func TestScanMatchesSequentialPrefix(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, p)
		for i := range vals {
			vals[i] = rng.Int63n(1000) - 500
		}
		st := Run(Config{Ranks: p}, func(c *Comm) {
			c.SetResult(Exscan(c, []int64{vals[c.Rank()]}, Sum[int64])[0])
		})
		prefix := int64(0)
		for r := 0; r < p; r++ {
			if st.Values[r].(int64) != prefix {
				return false
			}
			prefix += vals[r]
		}
		return true
	}
	if err := quick.Check(f, refConfig); err != nil {
		t.Error(err)
	}
}

func TestAlltoallTransposeProperty(t *testing.T) {
	// Alltoall is a transpose: recv[src][k] on rank dst equals the element
	// parts[dst][k] that src sent.
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		// parts[src][dst] is a slice of random length with identifiable
		// values.
		lens := make([][]int, p)
		for src := range lens {
			lens[src] = make([]int, p)
			for dst := range lens[src] {
				lens[src][dst] = rng.Intn(4)
			}
		}
		st := Run(Config{Ranks: p}, func(c *Comm) {
			parts := make([][]int64, p)
			for dst := 0; dst < p; dst++ {
				parts[dst] = make([]int64, lens[c.Rank()][dst])
				for k := range parts[dst] {
					parts[dst][k] = int64(c.Rank()*1000000 + dst*1000 + k)
				}
			}
			c.SetResult(Alltoall(c, parts))
		})
		for dst := 0; dst < p; dst++ {
			recv := st.Values[dst].([][]int64)
			for src := 0; src < p; src++ {
				if len(recv[src]) != lens[src][dst] {
					return false
				}
				for k, v := range recv[src] {
					if v != int64(src*1000000+dst*1000+k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, refConfig); err != nil {
		t.Error(err)
	}
}

func TestBcastAnyRootProperty(t *testing.T) {
	f := func(seed int64, pRaw, rootRaw uint8) bool {
		p := int(pRaw)%8 + 1
		root := int(rootRaw) % p
		rng := rand.New(rand.NewSource(seed))
		payload := make([]int64, rng.Intn(5)+1)
		for i := range payload {
			payload[i] = rng.Int63()
		}
		st := Run(Config{Ranks: p}, func(c *Comm) {
			var data []int64
			if c.Rank() == root {
				data = payload
			}
			c.SetResult(refBcast(c, data, root))
		})
		for r := 0; r < p; r++ {
			got := st.Values[r].([]int64)
			if len(got) != len(payload) {
				return false
			}
			for i := range payload {
				if got[i] != payload[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, refConfig); err != nil {
		t.Error(err)
	}
}

func TestClockMonotonicityProperty(t *testing.T) {
	// Virtual clocks never decrease through any sequence of operations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(6) + 2
		ok := true
		Run(Config{Ranks: p}, func(c *Comm) {
			last := c.Time()
			check := func() {
				if c.Time() < last {
					ok = false
				}
				last = c.Time()
			}
			Barrier(c)
			check()
			Allgather(c, []int{c.Rank()})
			check()
			c.Compute(1e-6)
			check()
			sendrecv(c, []int{1}, (c.Rank()+1)%p, (c.Rank()-1+p)%p, 1)
			check()
		})
		return ok
	}
	if err := quick.Check(f, refConfig); err != nil {
		t.Error(err)
	}
}
