package session

import "edgereasoning/internal/label"

// WarmTurn reports whether the request ID names a turn that can find
// earlier history in a prefix cache. Session request IDs follow the
// generator's scheme — "s<N>t<K>" for turn K's canonical think,
// "s<N>t<K>b<B>" for extra branch samples, "s<N>t<K>a" for the act —
// and only the bare turn-0 think ("s<N>t0") runs against a history no
// prior request of its session has written; every other ID re-reads
// prompt content an earlier request already produced. IDs from other
// generators are conservatively reported cold.
//
// Per-request engine metrics carry only the ID, so experiment drivers
// use this to split tail latencies into cold first-turns (which must
// prefill either way) and warm turns (where prefix retention, and the
// host tier's restore-vs-recompute trade, actually shows up).
func WarmTurn(id label.Label) bool {
	s, _, ok := id.Session()
	return ok && id != label.Think(s, 0)
}
