package sim

// FreeList is one owner's LIFO of recycled records: Get draws the record
// Put last, or a new zero one. Get does not zero a recycled record, so a
// field the owner binds once (a callback, a home, a buffer, a generation)
// survives; the owner clears the rest. Drop gives a drawn record to the
// collector instead, where something may still name it. The list counts
// what it has out, which the owner's Audit compares with what it holds.
// The zero value is empty; a list has one owner and no lock. Under the
// race detector, Put or Drop of a record already on the list panics.
type FreeList[T any] struct {
	free        []*T
	draws, made uint64 // every Get, and those that found the list empty
	back        uint64 // every Put and Drop
	listed      map[*T]bool
}

// Get draws a record.
func (l *FreeList[T]) Get() *T {
	l.draws++
	n := len(l.free) - 1
	if n < 0 {
		l.made++
		return new(T)
	}
	r := l.free[n]
	l.free[n], l.free = nil, l.free[:n]
	if raceEnabled {
		delete(l.listed, r)
	}
	return r
}

// Put returns a drawn record to the list.
func (l *FreeList[T]) Put(r *T) {
	l.Drop(r)
	if raceEnabled {
		if l.listed == nil {
			l.listed = make(map[*T]bool)
		}
		l.listed[r] = true
	}
	l.free = append(l.free, r)
}

// Drop gives up a drawn record.
func (l *FreeList[T]) Drop(r *T) {
	if raceEnabled && l.listed[r] {
		panic("sim: record returned to a free list twice")
	}
	l.back++
}

// Outstanding reports the records drawn and neither Put nor Dropped.
func (l *FreeList[T]) Outstanding() int { return int(l.draws - l.back) }

// Draws reports every Get so far and how many of them made a record.
func (l *FreeList[T]) Draws() (all, made uint64) { return l.draws, l.made }

// Audit is how an owner states its free lists to a drain audit: each
// list's name, its records out, and what that must equal at quiescence.
type Audit func(list string, out, want int)
