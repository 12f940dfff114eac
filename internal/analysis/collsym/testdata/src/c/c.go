// Package c holds positive and negative cases for the collsym analyzer.
package c

import "vmpi"

// directRankBranch: collective guarded by a direct rank comparison.
func directRankBranch(c *vmpi.Comm) {
	if c.Rank() == 0 {
		vmpi.Barrier(c) // want `collective vmpi.Barrier inside a rank-dependent branch`
	}
}

// rankVarBranch: the rank flows through a local variable.
func rankVarBranch(c *vmpi.Comm) {
	me := c.Rank()
	if me == 0 {
		_ = vmpi.Allreduce(c, []float64{1}) // want `collective vmpi.Allreduce inside a rank-dependent branch`
	}
}

// rankSwitch: switch on a rank variable covers all cases.
func rankSwitch(c *vmpi.Comm) {
	me := c.WorldRank()
	switch me {
	case 0:
		_ = vmpi.Allgather(c, []int{1}) // want `collective vmpi.Allgather inside a rank-dependent branch`
	default:
		vmpi.Barrier(c) // want `collective vmpi.Barrier inside a rank-dependent branch`
	}
}

// rankCaseSwitch: a tagless switch with a rank-dependent case expression.
func rankCaseSwitch(c *vmpi.Comm) {
	switch {
	case c.Rank() == 0:
		_ = c.Split(0, 0) // want `collective Comm.Split inside a rank-dependent branch`
	}
}

// elseBranch: the else arm of a rank conditional is asymmetric too.
func elseBranch(c *vmpi.Comm) {
	if c.Rank() == 0 {
		vmpi.Send(c, []int{1}, 1, 0)
	} else {
		vmpi.Barrier(c) // want `collective vmpi.Barrier inside a rank-dependent branch`
	}
}

// okP2P: rank-dependent point-to-point is the normal SPMD idiom
// (negative case).
func okP2P(c *vmpi.Comm) {
	if c.Rank() == 0 {
		vmpi.SendOwned(c, []float64{1}, 1, 7)
	} else if c.Rank() == 1 {
		_ = vmpi.Recv[float64](c, 0, 7)
	}
}

// okUnconditional: collectives outside any rank branch are symmetric
// (negative case).
func okUnconditional(c *vmpi.Comm) {
	vmpi.Barrier(c)
	_ = vmpi.Allreduce(c, []float64{1})
	sub := c.Split(c.Rank()%2, c.Rank())
	_ = sub
}

// okSizeBranch: branching on Size is not rank-dependent (negative case).
func okSizeBranch(c *vmpi.Comm) {
	if c.Size() > 1 {
		vmpi.Barrier(c)
	}
}

// okSuppressed: an acknowledged asymmetry can be waived explicitly.
func okSuppressed(c *vmpi.Comm) {
	if c.Rank() == 0 {
		vmpi.Barrier(c) //parlint:allow collsym -- single-rank demo path
	}
}
