package runtime

import "time"

// IntervalSource builds a source that fires every interval, emitting the
// tick count. It waits on a timer or fl.Ctx, off every dispatcher like
// any source, and its tick state is unsynchronized: bind the returned
// function to one source (SourceFunc's one-goroutine contract).
func IntervalSource(interval time.Duration) SourceFunc {
	var next time.Time
	var ticks int
	return func(fl *Flow) (Record, error) {
		if next.IsZero() {
			next = time.Now().Add(interval)
		}
		if wait := time.Until(next); wait > 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-t.C:
			case <-fl.Ctx.Done():
				return nil, fl.Ctx.Err()
			}
		}
		next = next.Add(interval)
		if time.Until(next) < 0 {
			// The source fell behind (long pause); resynchronize
			// rather than firing a burst.
			next = time.Now().Add(interval)
		}
		ticks++
		return Record{ticks}, nil
	}
}
