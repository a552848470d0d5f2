package network

// workers.go is the shard-resident parallel executor behind the flit
// cycle. The fabric is partitioned into one shard per worker
// (topology.Partition — contiguous node ranges for meshes, region-aligned
// for generated fabrics) and a worker owns its shard for the life of the
// pool: the worker steps its shard's nodes, draws their RNG
// streams, fills their stats shards and drains their staging lanes, so
// interior traffic — both endpoints in one shard — never synchronizes
// with another worker at all.
//
// Edges are classified once, at partition time, into interior (producer
// and consumer owned by the same worker) and boundary (cross-shard:
// published through the existing single-writer staging lanes). A node
// is "interior" when every wired edge it touches is; the per-cycle
// active-set scan counts how many active nodes are boundary nodes, and
// that count picks the cycle's execution mode:
//
//	cycFused        no active boundary nodes: each worker runs
//	                deliver→schedule→commit over its own active nodes
//	                with no mid-cycle synchronization at all — the only
//	                barrier is the end-of-cycle join.
//	cycSplit        boundary traffic present: each worker fuses
//	                deliver+schedule into one pass over its shard, then
//	                crosses ONE mid-cycle sequence point, then runs
//	                commit. The old engine needed two barriers here
//	                (deliver→schedule and schedule→commit); the first is
//	                unnecessary because delivery only mutates buffer
//	                occupancy while cross-node schedule reads only touch
//	                VC reservation state, which nothing mutates before
//	                commit (see the phase contract in datapath.go).
//	cycSplitImpair  link impairments active: impairment drops release VC
//	                reservations *during delivery* (the one deliver-phase
//	                write cross-node schedule reads could observe), so
//	                these cycles keep the deliver→schedule barrier too.
//	                Rare — only while a fault plan holds an impairment.
//
// Bit-exactness is unchanged from the work-stealing engine this
// replaces: per-node work order within a pass cannot affect results
// (all cross-node effects ride single-writer lanes or claim slots that
// are consumed a sequence point later), per-node RNG/stats/pools are
// merged in ascending node order on the serial path, and the
// workers×gating equivalence matrix (shard_test.go) pins EncodeState
// byte-equality across every combination.
//
// Everything on the dispatch path (one channel send per worker per
// cycle, the two reusable WaitGroups, per-worker slice resets) is
// allocation-free, keeping the steady-state zero-alloc guarantee at
// every worker count.

// Cycle execution modes (see the file comment).
const (
	cycFused = iota
	cycSplit
	cycSplitImpair
)

// workerRun is one worker's resident state: the nodes it owns (ascending
// node order), its slice of the current cycle's active set, and the
// claim-extra receivers recorded while staging claims this cycle. Padded
// so adjacent workers' append cursors never share a cache line.
type workerRun struct {
	nodes  []*node // owned nodes, ascending (shard blocks are contiguous)
	act    []*node // active owned nodes this cycle, ascending
	extras []*node // gated-out claim receivers recorded during schedule
	_      [56]byte
}

// SetWorkers resizes the worker pool and re-derives shard ownership.
// k <= 1 (and any k when the network has a single node) tears the pool
// down and runs the same per-shard passes inline; the simulation result
// is bit-identical for every k. Safe to call between Steps only.
func (n *Network) SetWorkers(k int) {
	if k > len(n.nodes) {
		k = len(n.nodes)
	}
	if k < 1 {
		k = 1
	}
	if k == n.Workers() && len(n.wrk) == k {
		return
	}
	n.Shutdown()
	n.workers = k
	n.partition()
	for i := 1; i < k; i++ {
		ch := make(chan struct{}, 1)
		n.wake = append(n.wake, ch)
		go n.workerLoop(i, ch)
	}
}

// Workers returns the current worker-pool size (1 = serial).
func (n *Network) Workers() int {
	if n.workers < 1 {
		return 1
	}
	return n.workers
}

// Shutdown stops the worker goroutines. Call when done with a network
// built with Workers > 1 (netsweep and fuzz harnesses create thousands
// of networks; leaked workers would accumulate). Idempotent; the network
// remains usable afterwards in serial mode.
func (n *Network) Shutdown() {
	for _, ch := range n.wake {
		close(ch)
	}
	n.wake = n.wake[:0]
	if n.workers != 1 {
		n.workers = 1
		n.partition()
	}
}

// partition (re)derives the shard layout: the topology partitioner
// yields one member list per worker (fewer when the fabric has fewer
// regions than workers; the trailing workers then own nothing and only
// take part in the barriers), and every node is classified
// interior/boundary by whether all its wired edges stay inside its
// shard. Runs on the control path (SetWorkers), so its allocations never
// touch the steady state.
func (n *Network) partition() {
	k := n.Workers()
	parts := n.cfg.Topology.Partition(k)
	n.numShards = len(parts)

	if n.workerOf == nil {
		n.workerOf = make([]int32, len(n.nodes))
		n.interior = make([]bool, len(n.nodes))
	}
	n.wrk = make([]workerRun, k)
	for w, p := range parts {
		for _, id := range p {
			n.workerOf[id] = int32(w)
			n.wrk[w].nodes = append(n.wrk[w].nodes, n.nodes[id])
		}
	}

	// Interior classification. Wiring is symmetric (Connect wires both
	// directions), but check inbound and outbound edges independently so
	// the classification never depends on that.
	n.allBoundary = 0
	for _, nd := range n.nodes {
		in := true
		for i := range nd.in {
			if n.workerOf[nd.in[i].peer] != n.workerOf[nd.id] {
				in = false
				break
			}
		}
		if in {
			for _, x := range nd.outPeer {
				if x >= 0 && n.workerOf[x] != n.workerOf[nd.id] {
					in = false
					break
				}
			}
		}
		n.interior[nd.id] = in
		if !in {
			n.allBoundary++
		}
	}
}

// ShardLayout reports the current partition for diagnostics and tests:
// the shard count and how many nodes are interior (every wired edge
// stays inside the node's shard) vs boundary.
func (n *Network) ShardLayout() (shards, interior, boundary int) {
	return n.numShards, len(n.nodes) - n.allBoundary, n.allBoundary
}

// ShardOf returns the shard owning the given node.
func (n *Network) ShardOf(node int) int { return int(n.workerOf[node]) }

// serialCutoff is the active-set size below which a cycle skips the pool
// and runs inline: with fewer than two active nodes per worker the
// wake/join round-trip costs more than the work it spreads. Derived from
// the worker count (a fixed constant would either never fire for large
// pools or always fire for small ones); purely a performance knob — the
// serial and pooled paths are bit-identical by construction.
func (n *Network) serialCutoff() int { return 2 * n.Workers() }

// workerLoop is one pool goroutine: woken once per cycle, it runs its
// resident shard block through the published mode and reports the join.
func (n *Network) workerLoop(id int, wake chan struct{}) {
	for range wake {
		n.runShardCycle(id, n.cycMode, n.cycT, n.cycAll)
		n.wwg.Done()
	}
}

// runCycle executes one flit cycle. The per-worker active lists (or the
// resident node lists when all is set — the NoIdleSkip path) were
// prepared by buildActive; total and boundary are its counts. Small
// cycles run inline; otherwise the mode is published, every worker is
// woken exactly once, and the stepping goroutine participates as worker
// 0 before closing the end-of-cycle join.
func (n *Network) runCycle(t int64, total, boundary int, all bool) {
	if total == 0 {
		return
	}
	k := n.Workers()
	if k <= 1 || total < n.serialCutoff() {
		n.runCycleSerial(t, all)
		return
	}
	mode := cycSplit
	switch {
	case boundary == 0:
		// Every active node is interior: workers cannot interact at all
		// this cycle (their lanes, claims and neighbor reads all resolve
		// inside their own shard), so even the impairment drops are safe —
		// each worker's fused pass keeps them ordered before its own
		// schedule reads.
		mode = cycFused
	case len(n.impair) > 0:
		mode = cycSplitImpair
		n.midwg2.Add(k)
		n.midwg.Add(k)
	default:
		n.midwg.Add(k)
	}
	n.cycMode, n.cycT, n.cycAll = mode, t, all
	n.wwg.Add(k - 1)
	for _, ch := range n.wake {
		ch <- struct{}{}
	}
	n.runShardCycle(0, mode, t, all)
	n.wwg.Wait()
}

// runCycleSerial is the inline fallback: the same per-shard passes in
// worker order on the stepping goroutine. Order across nodes within a
// pass cannot affect results (the phase contract), so this is
// bit-identical to the pooled path.
func (n *Network) runCycleSerial(t int64, all bool) {
	for w := range n.wrk {
		for _, nd := range n.list(w, all) {
			n.phaseDeliver(nd, t)
		}
	}
	for w := range n.wrk {
		ws := &n.wrk[w]
		for _, nd := range n.list(w, all) {
			n.phaseSchedule(nd, t, ws)
		}
	}
	for w := range n.wrk {
		for _, nd := range n.list(w, all) {
			n.phaseCommit(nd, t)
		}
	}
	if !all {
		for w := range n.wrk {
			n.commitExtras(&n.wrk[w], t)
		}
	}
}

// list returns worker w's worklist for this cycle: its slice of the
// active set, or its full resident block when gating is off.
func (n *Network) list(w int, all bool) []*node {
	if all {
		return n.wrk[w].nodes
	}
	return n.wrk[w].act
}

// runShardCycle is one worker's whole cycle over its resident shard
// block. Pass A fuses deliver and schedule; pass B commits. The
// mid-cycle sequence point between them exists only in the split modes —
// it is what makes a sender's staged claims and lane appends visible to
// their cross-shard consumers — and is the single global barrier of the
// common parallel cycle (cycSplit); the end-of-cycle join doubles as the
// return to the serial path.
func (n *Network) runShardCycle(w, mode int, t int64, all bool) {
	ws := &n.wrk[w]
	list := ws.act
	if all {
		list = ws.nodes
	}
	switch mode {
	case cycFused:
		for _, nd := range list {
			n.phaseDeliver(nd, t)
		}
		for _, nd := range list {
			n.phaseSchedule(nd, t, ws)
		}
		for _, nd := range list {
			n.phaseCommit(nd, t)
		}
		if !all {
			// Interior-only cycle: every extra this worker recorded is a
			// same-shard receiver, so it commits them without looking at
			// any other worker's list.
			n.commitExtras(ws, t)
		}
	case cycSplit:
		for _, nd := range list {
			n.phaseDeliver(nd, t)
		}
		for _, nd := range list {
			n.phaseSchedule(nd, t, ws)
		}
		n.midwg.Done()
		n.midwg.Wait()
		for _, nd := range list {
			n.phaseCommit(nd, t)
		}
		if !all {
			n.commitExtrasOwned(w, t)
		}
	case cycSplitImpair:
		for _, nd := range list {
			n.phaseDeliver(nd, t)
		}
		n.midwg2.Done()
		n.midwg2.Wait()
		for _, nd := range list {
			n.phaseSchedule(nd, t, ws)
		}
		n.midwg.Done()
		n.midwg.Wait()
		for _, nd := range list {
			n.phaseCommit(nd, t)
		}
		if !all {
			n.commitExtrasOwned(w, t)
		}
	}
}

// commitExtras commits the inbound claims of the gated-out receivers one
// worker recorded while staging claims, deduplicated by the extra stamp.
// Serial path and fused cycles: every recorded receiver is owned by the
// recording worker.
func (n *Network) commitExtras(ws *workerRun, t int64) {
	for _, nd := range ws.extras {
		if n.extraStamp[nd.id] == t {
			continue
		}
		n.extraStamp[nd.id] = t
		n.commitClaims(nd)
	}
}

// commitExtrasOwned is the split-cycle form: worker w scans every
// worker's extras (visible — recording happened before the sequence
// point) and commits the ones it owns. The extra stamp has a single
// writer per slot (the owner), so the dedup is race-free.
func (n *Network) commitExtrasOwned(w int, t int64) {
	for i := range n.wrk {
		for _, nd := range n.wrk[i].extras {
			if n.workerOf[nd.id] != int32(w) || n.extraStamp[nd.id] == t {
				continue
			}
			n.extraStamp[nd.id] = t
			n.commitClaims(nd)
		}
	}
}
