package cache

import "numachine/internal/snap"

// Encode appends the cache's behaviorally relevant state to a canonical
// encoding (see internal/snap): each slot's address/state/data in slot
// order, a never-inserted slot as Invalid.
func (c *Cache) Encode(e *snap.Enc) {
	e.Int(c.lines.Slots())
	for i := 0; i < c.lines.Slots(); i++ {
		l := c.lines.At(i)
		if l.State == Invalid {
			e.Byte(0)
			continue
		}
		e.Byte(1)
		e.U64(l.Addr)
		e.Byte(byte(l.State))
		e.U64(l.Data)
	}
}
