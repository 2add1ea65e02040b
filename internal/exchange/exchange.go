package exchange

// Exchanger synchronizes boundary-variable state between the K shard
// workers of one sharded solve. Every worker crosses two sync points
// per iteration, in order, each split in a send half and a receive
// half so a transport with a wire can have frames in flight while the
// worker computes between the halves.
//
// Sync point 1 (GatherM): BeginGatherM is called once the worker has
// posted its outbound rows to the solve's Mailbox — they are final by
// contract — and ships them; FinishGatherM blocks until every packed
// row into the worker's inbox holds this iteration's m-contributions
// (written there by its sender on shared memory, decoded from the
// peers' frames on a message transport), so Mailbox.Combine can run.
//
// Sync point 2 (ScatterZ): BeginScatterZ is called once the worker has
// combined its owned boundary z and ships it; on return from
// FinishScatterZ the owner-computed z of every boundary variable the
// worker touches is available.
//
// BeginX/FinishX must bracket exactly like a single X call: GatherM
// and ScatterZ are Begin followed by Finish, back to back.
//
// Implementations are safe for concurrent use by their distinct
// workers; a single worker's calls are sequential by construction.
type Exchanger interface {
	BeginGatherM(worker int)
	FinishGatherM(worker int)
	GatherM(worker int)

	BeginScatterZ(worker int)
	FinishScatterZ(worker int)
	ScatterZ(worker int)

	// Stats reports cumulative traffic counters. Must not be called
	// concurrently with an in-flight iteration.
	Stats() Stats

	// Close releases transport resources. Workers must have finished.
	Close() error
}

// Stats counts an exchanger's data-plane traffic. Every byte is counted
// once, at its sender, so the totals are "bytes moved" regardless of
// topology; Local moves no bytes and reports zeros.
type Stats struct {
	// BytesMoved is the cumulative boundary-state payload sent across
	// all workers this exchanger carries: the doubles of the m/z blocks
	// shipped. The graph.CutCost word model prices exactly this
	// exchange, so BytesMoved per round == PredictedWords x 8 — the
	// transport tests pin the identity.
	BytesMoved int64
	// WireBytes is the cumulative bytes actually written to the
	// streams: BytesMoved plus per-frame header overhead. The gap is
	// pure framing and shrinks relatively as boundaries grow; thin
	// boundaries (a chain's handful of cut points) keep it visible.
	WireBytes int64
	// Frames is the number of data-plane frames sent.
	Frames int64
	// Rounds is the number of completed iterations (GatherM+ScatterZ
	// pairs) observed by the accounting worker.
	Rounds int64
	// PredictedWords is the manifest's steady-state traffic prediction
	// in doubles per iteration — equal to graph.CutCost of the bound
	// partition by construction (0 for Local).
	PredictedWords int
}

// BytesPerRound returns the measured payload bytes moved per iteration,
// 0 before the first completed round.
func (s Stats) BytesPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.BytesMoved) / float64(s.Rounds)
}

// WireBytesPerRound returns the measured wire bytes (payload plus frame
// headers) per iteration, 0 before the first completed round.
func (s Stats) WireBytesPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.WireBytes) / float64(s.Rounds)
}
