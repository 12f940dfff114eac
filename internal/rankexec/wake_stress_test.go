package rankexec

import "testing"

// TestHandoffStressBudgetAdmit races the park hand-off against wakes,
// budget growth and trimming, and Admit. Tasks on 2 or 4
// base slots plus budget extras each post three tokens a round and batch
// the owed wakes into one UnparkBatch before waiting (the shape of a
// vmpi rendezvous's wake); task 0 admits a second cohort mid-run that plays the same
// game among itself. Every token must be consumed, every wake must end
// exactly one Park call, and no budget unit may leak.
func TestHandoffStressBudgetAdmit(t *testing.T) {
	const founders, admitted, rounds = 96, 32, 200
	for _, w := range []int{2, 4} {
		for _, extras := range []int{1, 3} {
			b := &fakeBudget{cap: extras}
			boxes := newTokenBoxes(founders + admitted)
			var ex *Executor
			ex = New(founders, func(id int) {
				base, size := 0, founders
				if id >= founders {
					base, size = founders, admitted
				}
				var wakes []int
				for r := 0; r < rounds; r++ {
					if id == 0 && r == rounds/4 {
						ex.Admit(admitted)
					}
					for _, d := range [...]int{1, size - 1, size / 2} {
						if to := base + (id-base+d)%size; boxes.deposit(to) {
							wakes = append(wakes, to)
						}
					}
					ex.UnparkBatch(wakes)
					wakes = wakes[:0]
					for k := 0; k < 3; k++ {
						boxes.wait(ex, id, nil)
					}
				}
			}, Options{Workers: w, Budget: b})
			ex.Start()
			ex.Wait()
			st := ex.Snapshot()
			for id, n := range boxes.tokens {
				if n != 0 {
					t.Fatalf("w=%d extras=%d: task %d left %d tokens", w, extras, id, n)
				}
			}
			if st.Spawned != founders+admitted {
				t.Fatalf("w=%d extras=%d: Spawned = %d, want %d", w, extras, st.Spawned, founders+admitted)
			}
			if st.Wakeups != boxes.wakes || st.Wakeups != boxes.parkCalls {
				t.Fatalf("w=%d extras=%d: %d wakeups, %d owed wakes, %d Park calls", w, extras, st.Wakeups, boxes.wakes, boxes.parkCalls)
			}
			if st.MaxSlots > w+extras {
				t.Fatalf("w=%d extras=%d: MaxSlots %d", w, extras, st.MaxSlots)
			}
			if got := b.outstanding(); got != 0 {
				t.Fatalf("w=%d extras=%d: %d budget units outstanding after Wait", w, extras, got)
			}
		}
	}
}
