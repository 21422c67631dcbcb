package mpi

import "fmt"

// Internal tag space for collective traffic, above anything user code uses.
// MPI's non-overtaking guarantee (per source+tag FIFO, which the mailbox
// preserves) keeps back-to-back collectives of the same kind from mixing.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1<<20 + 1
	tagAllgath = 1<<20 + 5
	tagAlltoal = 1<<20 + 6
	tagReduce  = 1<<20 + 7
	tagScan    = 1<<20 + 8
)

// Barrier blocks until every rank has entered it (dissemination algorithm,
// ceil(log2 n) rounds of eager messages).
//
//vet:allow deadcode — the collective analyzer's fixtures type-check against it, and the mpi tests pin its dissemination rounds
func (c *Comm) Barrier() error {
	n := c.world.n
	if n == 1 {
		return nil
	}
	token := []byte{1}
	buf := make([]byte, 1)
	for dist := 1; dist < n; dist <<= 1 {
		dst := (c.rank + dist) % n
		src := (c.rank - dist + n) % n
		c.isend(token, dst, tagBarrier)
		if _, err := c.Recv(buf, src, tagBarrier); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
	}
	return nil
}

// Bcast distributes root's buf to every rank using a binomial tree; all
// ranks must pass buffers of identical length.
func (c *Comm) Bcast(buf []byte, root int) error {
	n := c.world.n
	if root < 0 || root >= n {
		return fmt.Errorf("bcast: %w: root %d", ErrRank, root)
	}
	if n == 1 {
		return nil
	}
	relative := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if relative&mask != 0 {
			src := (c.rank - mask + n) % n
			if _, err := c.Recv(buf, src, tagBcast); err != nil {
				return fmt.Errorf("bcast: %w", err)
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < n {
			dst := (c.rank + mask) % n
			if err := c.Send(buf, dst, tagBcast); err != nil {
				return fmt.Errorf("bcast: %w", err)
			}
		}
		mask >>= 1
	}
	return nil
}

// Allgather collects every rank's (variable-length) buffer on every rank,
// in rank order, using the ring algorithm. Subsumes MPI_Allgather(v).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	n := c.world.n
	out := make([][]byte, n)
	own := make([]byte, len(data))
	copy(own, data)
	out[c.rank] = own
	if n == 1 {
		return out, nil
	}
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	for step := 0; step < n-1; step++ {
		// Forward the block received step hops ago (own block at step 0).
		fwd := out[(c.rank-step+n)%n]
		c.isend(fwd, right, tagAllgath)
		srcBlock := (c.rank - step - 1 + n) % n
		st, err := c.Probe(left, tagAllgath)
		if err != nil {
			return nil, fmt.Errorf("allgather: %w", err)
		}
		buf := make([]byte, st.Count)
		if _, err := c.Recv(buf, left, tagAllgath); err != nil {
			return nil, fmt.Errorf("allgather: %w", err)
		}
		out[srcBlock] = buf
	}
	return out, nil
}

// Alltoallv performs the personalized all-to-all exchange with per-rank
// sizes: send[i] goes to rank i, and recvSizes[j] must equal len(send[j])
// as provided by rank j (exchanged beforehand, exactly as the paper's
// two-round protocol does with MPI_Alltoall). Uses pairwise exchange:
// n-1 rounds of SendRecv with partners (rank±i) mod n.
func (c *Comm) Alltoallv(send [][]byte, recvSizes []int) ([][]byte, error) {
	n := c.world.n
	if len(send) != n || len(recvSizes) != n {
		return nil, fmt.Errorf("alltoallv: %w: %d send blocks / %d recv sizes for %d ranks",
			ErrCount, len(send), len(recvSizes), n)
	}
	out := make([][]byte, n)
	own := make([]byte, len(send[c.rank]))
	copy(own, send[c.rank])
	out[c.rank] = own
	for i := 1; i < n; i++ {
		dst := (c.rank + i) % n
		src := (c.rank - i + n) % n
		// Both peers know the size matrix, so empty pairings are skipped
		// symmetrically — sparse exchanges (the common case under
		// round-robin cell mapping) stay O(nonzero blocks).
		needSend := len(send[dst]) > 0
		needRecv := recvSizes[src] > 0
		switch {
		case needSend && needRecv:
			buf := make([]byte, recvSizes[src])
			st, err := c.SendRecv(send[dst], dst, tagAlltoal, buf, src, tagAlltoal)
			if err != nil {
				return nil, fmt.Errorf("alltoallv: %w", err)
			}
			if st.Count != recvSizes[src] {
				return nil, fmt.Errorf("alltoallv: rank %d sent %d bytes, expected %d",
					src, st.Count, recvSizes[src])
			}
			out[src] = buf
		case needSend:
			c.isend(send[dst], dst, tagAlltoal)
		case needRecv:
			buf := make([]byte, recvSizes[src])
			st, err := c.Recv(buf, src, tagAlltoal)
			if err != nil {
				return nil, fmt.Errorf("alltoallv: %w", err)
			}
			if st.Count != recvSizes[src] {
				return nil, fmt.Errorf("alltoallv: rank %d sent %d bytes, expected %d",
					src, st.Count, recvSizes[src])
			}
			out[src] = buf
		default:
			out[src] = nil
		}
	}
	return out, nil
}

// Reduce combines count elements of datatype dt from every rank with op,
// leaving the result (in rank order: data_0 ∘ data_1 ∘ ... ∘ data_{n-1})
// at root. Non-root ranks receive nil. The tree is order-preserving, so op
// may be non-commutative but must be associative (paper §4.2.2).
func (c *Comm) Reduce(data []byte, count int, dt *Datatype, op *Op, root int) ([]byte, error) {
	n := c.world.n
	if root < 0 || root >= n {
		return nil, fmt.Errorf("reduce: %w: root %d", ErrRank, root)
	}
	if count*dt.Size() != len(data) {
		return nil, fmt.Errorf("reduce: %w: %d bytes for %d x %s", ErrCount, len(data), count, dt.Name())
	}
	if err := op.validate(dt); err != nil {
		return nil, fmt.Errorf("reduce: %w", err)
	}
	// partial covers ranks [c.rank, c.rank+mask) at each level.
	partial := make([]byte, len(data))
	copy(partial, data)
	tmp := make([]byte, len(data))
	for mask := 1; mask < n; mask <<= 1 {
		if c.rank&mask != 0 {
			dst := c.rank &^ mask
			if err := c.Send(partial, dst, tagReduce); err != nil {
				return nil, fmt.Errorf("reduce: %w", err)
			}
			partial = nil
			break
		}
		src := c.rank | mask
		if src >= n {
			continue
		}
		if _, err := c.Recv(tmp, src, tagReduce); err != nil {
			return nil, fmt.Errorf("reduce: %w", err)
		}
		// partial covers lower ranks, tmp covers higher: result = partial ∘ tmp.
		if err := c.applyOp(op, partial, tmp, count, dt); err != nil {
			return nil, err
		}
		partial, tmp = tmp, partial
	}
	// Rank 0 now holds the full reduction; route it to root if different.
	switch {
	case root == 0:
		if c.rank == 0 {
			return partial, nil
		}
	case c.rank == 0:
		if err := c.Send(partial, root, tagReduce); err != nil {
			return nil, fmt.Errorf("reduce: %w", err)
		}
	case c.rank == root:
		res := make([]byte, len(data))
		if _, err := c.Recv(res, 0, tagReduce); err != nil {
			return nil, fmt.Errorf("reduce: %w", err)
		}
		return res, nil
	}
	return nil, nil
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (c *Comm) Allreduce(data []byte, count int, dt *Datatype, op *Op) ([]byte, error) {
	res, err := c.Reduce(data, count, dt, op, 0)
	if err != nil {
		return nil, err
	}
	if c.rank != 0 {
		res = make([]byte, len(data))
	}
	if err := c.Bcast(res, 0); err != nil {
		return nil, err
	}
	return res, nil
}

// Scan computes the inclusive prefix reduction: rank r receives
// data_0 ∘ ... ∘ data_r. Hillis-Steele recursive doubling preserves
// operand order, so non-commutative associative operators are safe —
// Figure 13 runs MPI_Scan with the geometric UNION operator.
func (c *Comm) Scan(data []byte, count int, dt *Datatype, op *Op) ([]byte, error) {
	if count*dt.Size() != len(data) {
		return nil, fmt.Errorf("scan: %w: %d bytes for %d x %s", ErrCount, len(data), count, dt.Name())
	}
	if err := op.validate(dt); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	n := c.world.n
	result := make([]byte, len(data))
	copy(result, data)
	tmp := make([]byte, len(data))
	for d := 1; d < n; d <<= 1 {
		if c.rank+d < n {
			c.isend(result, c.rank+d, tagScan)
		}
		if c.rank-d >= 0 {
			if _, err := c.Recv(tmp, c.rank-d, tagScan); err != nil {
				return nil, fmt.Errorf("scan: %w", err)
			}
			// tmp covers lower ranks: result = tmp ∘ result.
			if err := c.applyOp(op, tmp, result, count, dt); err != nil {
				return nil, err
			}
		}
	}
	return result, nil
}
