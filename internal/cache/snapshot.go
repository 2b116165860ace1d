package cache

import "numachine/internal/snap"

// Encode appends the cache's behaviorally relevant state to a canonical
// encoding (see internal/snap): per set, each way's address/state/data plus
// the way's LRU rank within its set. Raw LRU clock values are excluded —
// replacement only compares lastUse within a set, so the rank order is the
// canonical form (two caches with the same ranks behave identically).
// Statistics are excluded.
func (c *Cache) Encode(e *snap.Enc) {
	e.Int(c.Sets())
	e.Int(c.assoc)
	for s := 0; s < c.Sets(); s++ {
		set := c.lines.Row(s) // a never-inserted set encodes as all Invalid
		for i := range set {
			if set[i].State == Invalid {
				e.Byte(0)
				continue
			}
			e.Byte(1)
			e.U64(set[i].Addr)
			e.Byte(byte(set[i].State))
			e.U64(set[i].Data)
			// LRU rank: number of ways in this set used more recently.
			rank := 0
			for j := range set {
				if j != i && set[j].State != Invalid && set[j].lastUse > set[i].lastUse {
					rank++
				}
			}
			e.Byte(byte(rank))
		}
	}
}
