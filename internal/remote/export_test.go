package remote

// Dispatched reports how many assigned enrollments h has handed to stream
// workers: one per enrollment that was assigned, none for one that was
// refused, withdrawn or turned away while pending.
func (h *Host) Dispatched() uint64 { return h.dispatched.Load() }
