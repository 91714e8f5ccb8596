package rewire

// BatchHoldsExpired returns how many of a WithBatching dispatcher's holds
// ended by their timer rather than by their released callers coming back
// or leaving; b must be WithBatching's backend.
func BatchHoldsExpired(b Backend) int64 {
	c := b.(*batchingBackend)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expired
}
