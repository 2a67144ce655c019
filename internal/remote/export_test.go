package remote

// Dispatched reports how many times h has handed a stream to a stream worker:
// once for each op that found its stream idle — none at an assignment, at the
// BODY-DONE of an idle stream, or for an offer refused, withdrawn or turned
// away.
func (h *Host) Dispatched() uint64 { return h.dispatched.Load() }
