package runtime

import (
	"sync"
	"time"
)

// IntervalSource builds a source that fires every interval, emitting the
// tick count. Unlike a naive timer loop it honors Flow.SourceTimeout: on
// the event-driven engine a dispatcher is held for at most the polling
// deadline, returning ErrNoData until the interval elapses — a timer
// flow must never wedge a dispatcher (§3.2.2).
func IntervalSource(interval time.Duration) SourceFunc {
	var mu sync.Mutex
	var next time.Time
	var ticks int

	return func(fl *Flow) (Record, error) {
		mu.Lock()
		if next.IsZero() {
			next = time.Now().Add(interval)
		}
		target := next
		mu.Unlock()

		wait := time.Until(target)
		if fl.SourceTimeout > 0 && wait > fl.SourceTimeout {
			t := time.NewTimer(fl.SourceTimeout)
			defer t.Stop()
			if fl.Wake != nil {
				select {
				case <-t.C:
					return nil, ErrNoData
				case <-fl.Wake:
					return nil, ErrNoData
				case <-fl.Ctx.Done():
					return nil, fl.Ctx.Err()
				}
			}
			select {
			case <-t.C:
				return nil, ErrNoData
			case <-fl.Ctx.Done():
				return nil, fl.Ctx.Err()
			}
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-t.C:
			case <-fl.Ctx.Done():
				return nil, fl.Ctx.Err()
			}
		}
		mu.Lock()
		// Another concurrent call may have claimed this tick.
		if time.Now().Before(next) {
			mu.Unlock()
			return nil, ErrNoData
		}
		next = next.Add(interval)
		if until := time.Until(next); until < 0 {
			// The source fell behind (long pause); resynchronize
			// rather than firing a burst.
			next = time.Now().Add(interval)
		}
		ticks++
		n := ticks
		mu.Unlock()
		return Record{n}, nil
	}
}
