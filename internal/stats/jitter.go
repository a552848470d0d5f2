package stats

// JitterTracker measures per-connection jitter exactly as §5 defines it:
// "the jitter on a connection is defined as the difference in the delays
// of successive flits on a connection". Each connection remembers the
// delay of its previous flit; the absolute difference to the next flit's
// delay is one jitter sample.
type JitterTracker struct {
	prev     []float64
	seen     []bool
	jitter   Accumulator
	delay    Accumulator
	perConn  []Accumulator
	perDelay []Accumulator
}

// Grow extends the tracker to cover at least nconns connections,
// preserving existing state. Used when connections are admitted
// dynamically. Each slice grows to the target length in one step rather
// than element by element, so repeated admissions cost amortized O(1)
// per connection instead of O(n) appends per call.
func (j *JitterTracker) Grow(nconns int) {
	if len(j.prev) >= nconns {
		return
	}
	j.prev = append(j.prev, make([]float64, nconns-len(j.prev))...)
	j.seen = append(j.seen, make([]bool, nconns-len(j.seen))...)
	j.perConn = append(j.perConn, make([]Accumulator, nconns-len(j.perConn))...)
	j.perDelay = append(j.perDelay, make([]Accumulator, nconns-len(j.perDelay))...)
}

// Record notes that a flit of connection conn experienced the given delay.
// The first flit of a connection establishes a baseline and produces no
// jitter sample (ok is false); afterwards it returns the absolute
// delay difference to the previous flit, so callers can feed the sample
// to observers (e.g. metric histograms) without re-deriving it.
func (j *JitterTracker) Record(conn int, delay float64) (jitter float64, ok bool) {
	j.delay.Add(delay)
	j.perDelay[conn].Add(delay)
	if j.seen[conn] {
		d := delay - j.prev[conn]
		if d < 0 {
			d = -d
		}
		j.jitter.Add(d)
		j.perConn[conn].Add(d)
		jitter, ok = d, true
	}
	j.prev[conn] = delay
	j.seen[conn] = true
	return jitter, ok
}

// Jitter returns the aggregate jitter accumulator across all connections.
func (j *JitterTracker) Jitter() *Accumulator { return &j.jitter }

// Delay returns the aggregate delay accumulator across all connections.
func (j *JitterTracker) Delay() *Accumulator { return &j.delay }

// ConnJitter returns the jitter accumulator for one connection.
func (j *JitterTracker) ConnJitter(conn int) *Accumulator { return &j.perConn[conn] }

// ConnDelay returns the delay accumulator for one connection.
func (j *JitterTracker) ConnDelay(conn int) *Accumulator { return &j.perDelay[conn] }

// NumConns returns how many connections the tracker currently covers.
func (j *JitterTracker) NumConns() int { return len(j.prev) }

// Baseline returns connection conn's previous-flit delay baseline and
// whether it is set, for a checkpoint walk to read or overwrite in place.
func (j *JitterTracker) Baseline(conn int) (prev *float64, seen *bool) {
	return &j.prev[conn], &j.seen[conn]
}

// Reset clears all statistics but keeps the per-connection baselines, so
// warm-up samples can be discarded without fabricating a jitter spike at
// the measurement boundary.
func (j *JitterTracker) Reset() {
	j.jitter.Reset()
	j.delay.Reset()
	for i := range j.perConn {
		j.perConn[i].Reset()
		j.perDelay[i].Reset()
	}
}
