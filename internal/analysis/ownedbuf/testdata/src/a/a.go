// Package a holds positive and negative cases for the ownedbuf analyzer.
package a

import "vmpi"

// useAfterSendOwned: every touch of buf after the transfer is a violation.
func useAfterSendOwned(c *vmpi.Comm) {
	buf := make([]float64, 32)
	buf[0] = 1
	vmpi.SendOwned(c, buf, 1, 7)
	buf[1] = 2              // want `use of buf after ownership was transferred by SendOwned`
	_ = buf[0]              // want `use of buf after ownership was transferred by SendOwned`
	vmpi.Send(c, buf, 1, 8) // want `use of buf after ownership was transferred by SendOwned`
	buf = append(buf, 3)    // want `use of buf after ownership was transferred by SendOwned`
}

// aliasTracking: transferring through one name poisons whole-slice aliases.
func aliasTracking(c *vmpi.Comm) {
	buf := make([]int, 32)
	alias := buf
	vmpi.SendOwned(c, alias, 1, 7)
	_ = buf[0] // want `use of buf after ownership was transferred by SendOwned`
}

// subsliceAlias: a reslice of the same backing array is an alias too.
func subsliceAlias(c *vmpi.Comm) {
	buf := make([]int, 32)
	head := buf[:8]
	vmpi.SendOwned(c, buf, 1, 7)
	_ = head[0] // want `use of head after ownership was transferred by SendOwned`
}

// alltoallOwned: the whole part set is relinquished.
func alltoallOwned(c *vmpi.Comm) {
	parts := make([][]float64, c.Size())
	recv := vmpi.AlltoallOwned(c, parts)
	_ = parts[0] // want `use of parts after ownership was transferred by AlltoallOwned`
	vmpi.ReleaseBlocks(recv)
}

// doubleRelease: a buffer may be handed back at most once.
func doubleRelease(c *vmpi.Comm) {
	got := vmpi.Recv[float64](c, 0, 7)
	vmpi.Release(got)
	vmpi.Release(got) // want `second Release of got`
}

// releaseAfterTransfer: the old owner may not release a transferred buffer.
func releaseAfterTransfer(c *vmpi.Comm) {
	buf := make([]float64, 32)
	vmpi.SendOwned(c, buf, 1, 7)
	vmpi.Release(buf) // want `Release of buf after ownership was transferred by SendOwned`
}

// doubleTransfer: a buffer can be relinquished only once.
func doubleTransfer(c *vmpi.Comm) {
	buf := make([]float64, 32)
	vmpi.SendOwned(c, buf, 1, 7)
	vmpi.SendOwned(c, buf, 2, 7) // want `SendOwned of buf after ownership was already transferred by SendOwned`
}

// okSendThenReuse: plain Send copies; reuse is fine (negative case).
func okSendThenReuse(c *vmpi.Comm) {
	buf := make([]float64, 32)
	vmpi.Send(c, buf, 1, 7)
	buf[0] = 2
	vmpi.Send(c, buf, 1, 8)
}

// okRebind: reassigning the name binds a fresh buffer; later uses are fine
// (negative case).
func okRebind(c *vmpi.Comm) {
	buf := make([]float64, 32)
	vmpi.SendOwned(c, buf, 1, 7)
	buf = vmpi.Recv[float64](c, 0, 9)
	_ = buf[0]
	vmpi.Release(buf)
}

// okReleaseOnce: the canonical receive-use-release flow (negative case).
func okReleaseOnce(c *vmpi.Comm) {
	got := vmpi.Recv[float64](c, 0, 7)
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	vmpi.Release(got)
	_ = sum
}

// okLoopRebuild: per-iteration fresh buffers die at the send (negative
// case).
func okLoopRebuild(c *vmpi.Comm) {
	for dst := 0; dst < c.Size(); dst++ {
		buf := make([]float64, 32)
		buf[0] = float64(dst)
		vmpi.SendOwned(c, buf, dst, 7)
	}
}

// okTransferInReturningBranch: the transfer branch leaves the function, so
// the later uses are on paths that kept ownership (negative case; this is
// the shape of a binomial reduce).
func okTransferInReturningBranch(c *vmpi.Comm, send bool) []float64 {
	buf := make([]float64, 32)
	if send {
		vmpi.SendOwned(c, buf, 1, 7)
		return nil
	}
	buf[0] = 1
	return buf
}

// transferUsedInsideReturningBranch: uses after the transfer but still
// inside the terminating block are reachable and stay flagged.
func transferUsedInsideReturningBranch(c *vmpi.Comm, send bool) {
	buf := make([]float64, 32)
	if send {
		vmpi.SendOwned(c, buf, 1, 7)
		_ = buf[0] // want `use of buf after ownership was transferred by SendOwned`
		return
	}
}

// transferInFallthroughBranch: the branch does not leave the function, so
// the later use is reachable after the transfer.
func transferInFallthroughBranch(c *vmpi.Comm, send bool) {
	buf := make([]float64, 32)
	if send {
		vmpi.SendOwned(c, buf, 1, 7)
	}
	buf[0] = 1 // want `use of buf after ownership was transferred by SendOwned`
}

// suppressed: an allow comment silences a (deliberate) finding.
func suppressed(c *vmpi.Comm) {
	buf := make([]float64, 32)
	vmpi.SendOwned(c, buf, 1, 7)
	_ = len(buf) //parlint:allow ownedbuf -- demonstrating suppression
}
