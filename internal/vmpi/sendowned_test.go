package vmpi

// SendOwned sends data to rank dst, transferring ownership of the buffer
// into the message instead of deep-copying it: the caller must not read or
// write data — or any alias of its backing array — after the call, and the
// receiving rank becomes the sole owner. Message size, timing and virtual
// cost are identical to Send. The message-level references send with it so
// that their buffers change hands as the replayed collectives' do.
func SendOwned[T any](c *Comm, data []T, dst, tag int) {
	parts := [][]T{data}
	debugTransfer(c.rt, "SendOwned", parts, -1)
	sendRaw(c, parts[0], len(data)*sizeOf[T](), dst, tag)
}
