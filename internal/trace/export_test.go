package trace

import "unsafe"

// SlotSize is what one entry costs the ring, for the size pin beside
// TestEntrySize.
const SlotSize = unsafe.Sizeof(slot{})
