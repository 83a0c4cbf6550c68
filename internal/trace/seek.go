package trace

import "sort"

// Chunk-indexed seek. Every chunk is independently decodable: it carries
// its own base sequence number and base PC, and the address-delta chain is
// reset at each chunk boundary (the encoder's first load/store delta in a
// chunk is relative to zero). Positioning a cursor n records ahead
// therefore never replays the skipped region — the cursor jumps straight
// to the target's chunk and decodes only the in-chunk prefix (< one chunk)
// needed to rebuild the PC and address chains at the target. Sampled
// execution uses this to fast-forward between detailed windows without
// paying full decode for regions it will neither warm nor measure.

// Skip advances the replay cursor past up to n records without delivering
// them. It never skips past the delivery limit or the end of the recording,
// and returns the number of records actually skipped — less than n only at
// that end. The records skipped are exactly the next records Fill would
// have delivered: a reader that skips k records and then replays is
// positioned identically to one that read and discarded k.
func (r *Reader) Skip(n uint64) uint64 {
	n = min(n, r.end-r.count)
	if n == 0 {
		return 0
	}
	target := r.count + n // global record index to position the cursor at
	start := r.rec.startSeq

	// Records are consecutive across chunks, so chunk k covers global
	// indices [baseSeq-start, baseSeq-start+n). Find the chunk holding the
	// target index.
	chunks := r.rec.chunks
	ci := sort.Search(len(chunks), func(k int) bool {
		return chunks[k].baseSeq-start > target
	}) - 1
	c := chunks[ci]
	within := int(target - (c.baseSeq - start))
	r.ci = ci
	switch {
	case within == c.n:
		// Exactly the chunk's end: mark the decoder exhausted so the next
		// read advances to the following chunk (if the reader has one). The
		// stale chain state is never read at i == n.
		r.dec = decoder{c: c, i: c.n}
	case r.dec.c == c && r.dec.i <= within:
		// Same chunk, ahead of the cursor: replay only the gap.
		for r.dec.i < within {
			r.dec.next()
		}
	default:
		r.dec = newDecoder(c)
		for r.dec.i < within {
			r.dec.next()
		}
	}
	r.count = target
	return n
}
