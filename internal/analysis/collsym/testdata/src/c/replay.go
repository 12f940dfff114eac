// Cases for vmpi.Replay, the rendezvous a fixed-schedule algorithm such as
// psort's merge-exchange network meets in: every rank must enter it, like
// any collective.
package c

import "vmpi"

type netState struct{ items []int }

func replayNet(h *vmpi.Replayer, states []*netState) {}

// sortNet: a helper that enters the rendezvous (EntersCollective fact).
func sortNet(c *vmpi.Comm, st *netState) { vmpi.Replay(c, "net", st, replayNet) }

// replayInBranch: only rank 0 would arrive.
func replayInBranch(c *vmpi.Comm) {
	st := netState{}
	if c.Rank() == 0 {
		vmpi.Replay(c, "net", &st, replayNet) // want `collective vmpi.Replay inside a rank-dependent branch`
	}
}

// replayAfterExit: the rank that left is the missing one in the deadlock
// verdict.
func replayAfterExit(c *vmpi.Comm) {
	if c.WorldRank() == 2 {
		return
	}
	vmpi.Replay(c, "net", &netState{}, replayNet) // want `collective vmpi.Replay after the rank-dependent early exit at line \d+`
}

// replayThroughHelper: the rendezvous is entered in a callee.
func replayThroughHelper(c *vmpi.Comm) {
	if c.Rank()%2 == 0 {
		sortNet(c, &netState{}) // want `call to sortNet, which enters a vmpi collective, inside a rank-dependent branch`
	}
}

// okReplay: every rank enters with its own state, whatever it holds
// (negative case).
func okReplay(c *vmpi.Comm) {
	st := netState{items: make([]int, c.Rank())}
	vmpi.Replay(c, "net", &st, replayNet)
	sortNet(c, &st)
}
