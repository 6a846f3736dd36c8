package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dlb"
	"repro/internal/fault"
)

// Binary codec. Gob is convenient but slow: every []float64 element passes
// through reflection, and every message re-allocates. The messages a run
// sends over and over — the balancing conversation (status, instruction),
// work movement, scatter/gather, slice exchange, checkpoints, recovery, and
// combine deltas — are encoded here by hand instead: little-endian
// fixed-width scalars, length-prefixed sections, and bulk float64 runs.
// Each record has one layout: a checkpoint's cut is written by putCut for
// both the checkpoint part and the adoption that re-ships it. Gob carries
// only the rare control frames (heartbeat, evict, checkpoint request,
// join, finack, and the connection handshake).
//
// Whether a frame is gob or binary is carried per frame in the top bit of
// the length prefix (see framed), so both codecs interleave freely on one
// connection. Every Conn decodes both; a sender puts these payloads on the
// binary codec once SetBinary(true) is called, which the TCP transport
// does on every connection it attaches (the handshake's ProtocolVersion
// check admits only peers that decode binary frames).

// binaryVersion is the first payload byte of every binary frame; bump it
// if the layout of any message changes (the handshake's ProtocolVersion
// already gates incompatible deployments, this is a belt-and-suspenders
// check against stream corruption).
const binaryVersion = 5

// Binary message type tags.
const (
	binWork = iota + 1
	binSlice
	binInit
	binGather
	binCheckpoint
	binAdopt
	binFloats
	binStatus
	binInstr
)

// errNoBinary reports a payload type the binary codec does not cover;
// Conn.Send falls back to gob on it.
var errNoBinary = fmt.Errorf("wire: no binary encoding for payload type")

// corruptErr is the decoder's typed failure: a structurally invalid binary
// frame. It is an error, never a panic, for any input (see FuzzBinaryDecode).
func corruptErr(what string) error {
	return fmt.Errorf("wire: corrupt binary frame: %s", what)
}

// encBufPool recycles encode scratch buffers: one Get per binary Send, one
// Put as soon as the frame is on the wire. Buffers grow to the largest
// message they ever carried and stay at that size, so a steady-state run
// stops allocating on the data plane entirely.
var encBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// --- encoding primitives (append-style) ---

func putU8(b []byte, v byte) []byte   { return append(b, v) }
func putBool(b []byte, v bool) []byte { return append(b, boolByte(v)) }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putI64(b []byte, v int) []byte {
	u := uint64(int64(v))
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func putString(b []byte, s string) []byte {
	b = putU32(b, uint32(len(s)))
	return append(b, s...)
}

func putF64(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// putFloats writes a length-prefixed bulk float64 run.
func putFloats(b []byte, vals []float64) []byte {
	b = putU32(b, uint32(len(vals)))
	off := len(b)
	// One grow for the whole run, then fixed-width stores.
	b = append(b, make([]byte, 8*len(vals))...)
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	return b
}

func putInts(b []byte, vals []int) []byte {
	b = putU32(b, uint32(len(vals)))
	for _, v := range vals {
		b = putI64(b, v)
	}
	return b
}

func putBools(b []byte, vals []bool) []byte {
	b = putU32(b, uint32(len(vals)))
	for _, v := range vals {
		b = append(b, boolByte(v))
	}
	return b
}

// putFloatsMap writes map[string][]float64 with sorted keys (deterministic
// encoding, so identical messages produce identical bytes). Single-entry
// maps — the overwhelmingly common case on the data plane — skip the
// key-sorting scratch slice.
func putFloatsMap(b []byte, m map[string][]float64) []byte {
	b = putU32(b, uint32(len(m)))
	if len(m) == 1 {
		for k, v := range m {
			b = putString(b, k)
			b = putFloats(b, v)
		}
		return b
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = putString(b, k)
		b = putFloats(b, m[k])
	}
	return b
}

// putUnitMap writes map[int][]float64 in ascending unit order.
func putUnitMap(b []byte, m map[int][]float64) []byte {
	b = putU32(b, uint32(len(m)))
	if len(m) == 1 {
		for u, v := range m {
			b = putI64(b, u)
			b = putFloats(b, v)
		}
		return b
	}
	units := make([]int, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Ints(units)
	for _, u := range units {
		b = putI64(b, u)
		b = putFloats(b, m[u])
	}
	return b
}

// putOwnedMap writes map[string]map[int][]float64 (the owned-slices shape
// every scatter, gather, checkpoint, and recovery message shares).
func putOwnedMap(b []byte, m map[string]map[int][]float64) []byte {
	b = putU32(b, uint32(len(m)))
	if len(m) == 1 {
		for k, v := range m {
			b = putString(b, k)
			b = putUnitMap(b, v)
		}
		return b
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = putString(b, k)
		b = putUnitMap(b, m[k])
	}
	return b
}

// putStatus writes one StatusMsg: fixed-width scalars followed by the
// length-prefixed per-block cost section (empty on uniform-cost runs).
func putStatus(b []byte, s dlb.StatusMsg) []byte {
	b = putI64(b, s.Phase)
	b = putI64(b, s.HookIndex)
	b = putF64(b, s.Units)
	b = putI64(b, int(s.Busy))
	b = putI64(b, int(s.MoveCost))
	b = putI64(b, int(s.InterCost))
	b = putI64(b, s.Epoch)
	b = putI64(b, int(s.AotUnits))
	b = putI64(b, int(s.KernelUnits))
	b = putI64(b, int(s.FallbackUnits))
	b = putI64(b, int(s.OverlapRounds))
	b = putI64(b, int(s.OverlapFallback))
	b = putU32(b, uint32(len(s.CostBlocks)))
	for _, cb := range s.CostBlocks {
		b = putI64(b, cb.Lo)
		b = putI64(b, cb.Hi)
		b = putF64(b, cb.PerUnit)
	}
	return b
}

// putInstr writes one InstrMsg including its move list.
func putInstr(b []byte, m dlb.InstrMsg) []byte {
	b = putI64(b, m.Phase)
	b = putI64(b, m.HookIndex)
	b = putI64(b, m.SkipHooks)
	b = putI64(b, m.Epoch)
	b = putI64(b, m.CkptSeq)
	b = putU32(b, uint32(len(m.Moves)))
	for _, mv := range m.Moves {
		b = putI64(b, mv.From)
		b = putI64(b, mv.To)
		b = putInts(b, mv.Units)
	}
	return b
}

// putCut writes a checkpoint cut: resume coordinates, ownership map and the
// shared arrays.
func putCut(b []byte, c fault.Cut) []byte {
	b = putI64(b, c.Seq)
	b = putI64(b, c.Hook)
	b = putI64(b, c.Phase)
	b = putI64(b, c.NextContact)
	b = putI64(b, c.Slaves)
	b = putInts(b, c.Owner)
	b = putBools(b, c.Active)
	b = putFloatsMap(b, c.Replicated)
	return putFloatsMap(b, c.RedSnap)
}

// interned caches the small recurring strings of the protocol — array
// names and message tags — so decoding doesn't allocate a fresh copy per
// message. The cache is bounded: tags can carry per-epoch suffixes, and an
// adversarial stream must not grow it without limit.
var (
	internMu sync.RWMutex
	interned = make(map[string]string, 64)
)

const internLimit = 1024

func intern(b []byte) string {
	internMu.RLock()
	s, ok := interned[string(b)] // lookup by string(b) does not allocate
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(interned) < internLimit {
		interned[s] = s
	}
	internMu.Unlock()
	return s
}

// appendBinaryEnvelope encodes e into b, or returns errNoBinary when the
// payload has no binary layout (the caller then uses gob).
func appendBinaryEnvelope(b []byte, e Envelope) ([]byte, error) {
	var tag byte
	switch e.Payload.(type) {
	case dlb.WorkMsg:
		tag = binWork
	case dlb.SliceMsg:
		tag = binSlice
	case dlb.InitMsg:
		tag = binInit
	case dlb.GatherMsg:
		tag = binGather
	case dlb.CheckpointMsg:
		tag = binCheckpoint
	case dlb.AdoptMsg:
		tag = binAdopt
	case []float64:
		tag = binFloats
	case dlb.StatusMsg:
		tag = binStatus
	case dlb.InstrMsg:
		tag = binInstr
	default:
		return b, errNoBinary
	}
	b = putU8(b, binaryVersion)
	b = putU8(b, tag)
	b = putI64(b, e.From)
	b = putString(b, e.Tag)
	switch p := e.Payload.(type) {
	case dlb.WorkMsg:
		b = putInts(b, p.Units)
		b = putU32(b, uint32(len(p.Data)))
		arrs := make([]string, 0, len(p.Data))
		for a := range p.Data {
			arrs = append(arrs, a)
		}
		sort.Strings(arrs)
		for _, a := range arrs {
			b = putString(b, a)
			slices := p.Data[a]
			b = putU32(b, uint32(len(slices)))
			for _, s := range slices {
				b = putFloats(b, s)
			}
		}
		b = putOwnedMap(b, p.Ghosts)
	case dlb.SliceMsg:
		b = putI64(b, p.Unit)
		b = putI64(b, p.RowLo)
		b = putI64(b, p.RowHi)
		b = putFloats(b, p.Vals)
	case dlb.InitMsg:
		b = putOwnedMap(b, p.Owned)
		b = putFloatsMap(b, p.Replicated)
	case dlb.GatherMsg:
		b = putOwnedMap(b, p.Data)
		b = putFloatsMap(b, p.Reduced)
	case dlb.CheckpointMsg:
		b = putI64(b, p.Epoch)
		b = putI64(b, p.Slave)
		b = putBool(b, p.Meta)
		b = putOwnedMap(b, p.Owned)
		b = putFloatsMap(b, p.Red)
		b = putCut(b, p.Cut)
	case dlb.AdoptMsg:
		b = putI64(b, p.Epoch)
		b = putBools(b, p.Alive)
		b = putOwnedMap(b, p.Owned)
		b = putFloatsMap(b, p.Red)
		b = putCut(b, p.Cut)
	case []float64:
		b = putFloats(b, p)
	case dlb.StatusMsg:
		b = putStatus(b, p)
	case dlb.InstrMsg:
		b = putInstr(b, p)
	}
	return b, nil
}

// --- decoding ---

// binReader walks a binary frame with bounds checks; every read either
// succeeds or returns a corruptErr, so arbitrary bytes can never panic or
// over-allocate past the frame.
type binReader struct {
	b   []byte
	off int
	// arena hands out float storage for the message's slices from shared
	// backing arrays: one allocation covers many slices. The slices of one
	// decoded message alias one backing array but never each other, and no
	// consumer appends to a received slice (they copy out of or over it),
	// so the sharing is invisible.
	arena []float64
}

func (r *binReader) u8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, corruptErr("truncated byte")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *binReader) boolv() (bool, error) {
	v, err := r.u8()
	return v != 0, err
}

func (r *binReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, corruptErr("truncated u32")
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *binReader) i64() (int, error) {
	if r.off+8 > len(r.b) {
		return 0, corruptErr("truncated i64")
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return int(v), nil
}

func (r *binReader) f64() (float64, error) {
	if r.off+8 > len(r.b) {
		return 0, corruptErr("truncated f64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// count reads a u32 length prefix and sanity-checks it against the bytes
// that remain, given a minimum encoded size per element — a hostile length
// can never force an allocation larger than the frame itself.
func (r *binReader) count(elemBytes int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(elemBytes) > int64(len(r.b)-r.off) {
		return 0, corruptErr("length prefix exceeds frame")
	}
	return int(n), nil
}

func (r *binReader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	s := intern(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

// take hands out n floats of arena storage. The arena is sized from the
// bytes remaining in the frame — the floats still to be decoded cannot
// exceed that — so the first bulk take allocates backing for the entire
// message and every later slice is a subslice of it.
func (r *binReader) take(n int) []float64 {
	if n > len(r.arena) {
		sz := (len(r.b) - r.off) / 8
		if sz < n {
			sz = n
		}
		r.arena = make([]float64, sz)
	}
	s := r.arena[:n:n]
	r.arena = r.arena[n:]
	return s
}

func (r *binReader) floats() ([]float64, error) {
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := r.take(n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out, nil
}

func (r *binReader) ints() ([]int, error) {
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		out[i], _ = r.i64() // bounds pre-checked by count
	}
	return out, nil
}

func (r *binReader) bools() ([]bool, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]bool, n)
	for i := range out {
		v, _ := r.u8()
		out[i] = v != 0
	}
	return out, nil
}

func (r *binReader) floatsMap() (map[string][]float64, error) {
	n, err := r.count(5) // string prefix + floats prefix ≥ 8, 5 is safely below
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string][]float64, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.floats()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func (r *binReader) unitMap() (map[int][]float64, error) {
	n, err := r.count(12) // i64 unit + floats prefix
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[int][]float64, n)
	for i := 0; i < n; i++ {
		u, err := r.i64()
		if err != nil {
			return nil, err
		}
		v, err := r.floats()
		if err != nil {
			return nil, err
		}
		m[u] = v
	}
	return m, nil
}

func (r *binReader) ownedMap() (map[string]map[int][]float64, error) {
	n, err := r.count(9) // string prefix + unit-map prefix
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]map[int][]float64, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.unitMap()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// statusSize is the minimum encoded size of one StatusMsg: 12 scalars and
// the cost-block count prefix. Cost blocks (24 bytes each) follow when
// present.
const statusSize = 12*8 + 4

// costBlockSize is the fixed encoded size of one CostBlock (Lo, Hi, PerUnit).
const costBlockSize = 3 * 8

func (r *binReader) status() (dlb.StatusMsg, error) {
	var s dlb.StatusMsg
	if r.off+statusSize > len(r.b) {
		return s, corruptErr("truncated status")
	}
	s.Phase, _ = r.i64()
	s.HookIndex, _ = r.i64()
	s.Units, _ = r.f64()
	busy, _ := r.i64()
	mc, _ := r.i64()
	ic, _ := r.i64()
	s.Busy, s.MoveCost, s.InterCost = time.Duration(busy), time.Duration(mc), time.Duration(ic)
	s.Epoch, _ = r.i64()
	au, _ := r.i64()
	ku, _ := r.i64()
	fu, _ := r.i64()
	s.AotUnits, s.KernelUnits, s.FallbackUnits = int64(au), int64(ku), int64(fu)
	or, _ := r.i64()
	of, _ := r.i64()
	s.OverlapRounds, s.OverlapFallback = int64(or), int64(of)
	nb, err := r.count(costBlockSize)
	if err != nil {
		return s, err
	}
	if nb > 0 {
		s.CostBlocks = make([]dlb.CostBlock, nb)
		for i := range s.CostBlocks {
			s.CostBlocks[i].Lo, _ = r.i64() // bounds pre-checked by count
			s.CostBlocks[i].Hi, _ = r.i64()
			s.CostBlocks[i].PerUnit, _ = r.f64()
		}
	}
	return s, nil
}

func (r *binReader) instr() (dlb.InstrMsg, error) {
	var m dlb.InstrMsg
	var err error
	ints := []*int{&m.Phase, &m.HookIndex, &m.SkipHooks, &m.Epoch, &m.CkptSeq}
	for _, dst := range ints {
		if *dst, err = r.i64(); err != nil {
			return m, err
		}
	}
	n, err := r.count(20) // from + to + units prefix
	if err != nil {
		return m, err
	}
	if n == 0 {
		return m, nil
	}
	m.Moves = make([]core.Move, n)
	for i := range m.Moves {
		if m.Moves[i].From, err = r.i64(); err != nil {
			return m, err
		}
		if m.Moves[i].To, err = r.i64(); err != nil {
			return m, err
		}
		if m.Moves[i].Units, err = r.ints(); err != nil {
			return m, err
		}
	}
	return m, nil
}

// cut reads what putCut wrote.
func (r *binReader) cut() (fault.Cut, error) {
	var c fault.Cut
	var err error
	for _, dst := range []*int{&c.Seq, &c.Hook, &c.Phase, &c.NextContact, &c.Slaves} {
		if *dst, err = r.i64(); err != nil {
			return c, err
		}
	}
	if c.Owner, err = r.ints(); err != nil {
		return c, err
	}
	if c.Active, err = r.bools(); err != nil {
		return c, err
	}
	if c.Replicated, err = r.floatsMap(); err != nil {
		return c, err
	}
	c.RedSnap, err = r.floatsMap()
	return c, err
}

// decodeBinaryEnvelope decodes one binary frame payload. The returned
// envelope owns all its float storage — nothing aliases the frame buffer,
// which the caller reuses for the next frame.
func decodeBinaryEnvelope(payload []byte) (Envelope, error) {
	r := &binReader{b: payload}
	ver, err := r.u8()
	if err != nil {
		return Envelope{}, err
	}
	if ver != binaryVersion {
		return Envelope{}, corruptErr(fmt.Sprintf("unknown binary version %d", ver))
	}
	typ, err := r.u8()
	if err != nil {
		return Envelope{}, err
	}
	from, err := r.i64()
	if err != nil {
		return Envelope{}, err
	}
	tag, err := r.str()
	if err != nil {
		return Envelope{}, err
	}
	e := Envelope{Tag: tag, From: from}
	switch typ {
	case binWork:
		var p dlb.WorkMsg
		if p.Units, err = r.ints(); err != nil {
			return Envelope{}, err
		}
		na, err := r.count(9)
		if err != nil {
			return Envelope{}, err
		}
		if na > 0 {
			p.Data = make(map[string][][]float64, na)
			for i := 0; i < na; i++ {
				k, err := r.str()
				if err != nil {
					return Envelope{}, err
				}
				ns, err := r.count(4)
				if err != nil {
					return Envelope{}, err
				}
				slices := make([][]float64, ns)
				for j := range slices {
					if slices[j], err = r.floats(); err != nil {
						return Envelope{}, err
					}
				}
				p.Data[k] = slices
			}
		}
		if p.Ghosts, err = r.ownedMap(); err != nil {
			return Envelope{}, err
		}
		e.Payload = p
	case binSlice:
		var p dlb.SliceMsg
		if p.Unit, err = r.i64(); err != nil {
			return Envelope{}, err
		}
		if p.RowLo, err = r.i64(); err != nil {
			return Envelope{}, err
		}
		if p.RowHi, err = r.i64(); err != nil {
			return Envelope{}, err
		}
		if p.Vals, err = r.floats(); err != nil {
			return Envelope{}, err
		}
		e.Payload = p
	case binInit:
		var p dlb.InitMsg
		if p.Owned, err = r.ownedMap(); err != nil {
			return Envelope{}, err
		}
		if p.Replicated, err = r.floatsMap(); err != nil {
			return Envelope{}, err
		}
		e.Payload = p
	case binGather:
		var p dlb.GatherMsg
		if p.Data, err = r.ownedMap(); err != nil {
			return Envelope{}, err
		}
		if p.Reduced, err = r.floatsMap(); err != nil {
			return Envelope{}, err
		}
		e.Payload = p
	case binCheckpoint:
		var p dlb.CheckpointMsg
		if p.Epoch, err = r.i64(); err != nil {
			return Envelope{}, err
		}
		if p.Slave, err = r.i64(); err != nil {
			return Envelope{}, err
		}
		if p.Meta, err = r.boolv(); err != nil {
			return Envelope{}, err
		}
		if p.Owned, err = r.ownedMap(); err != nil {
			return Envelope{}, err
		}
		if p.Red, err = r.floatsMap(); err != nil {
			return Envelope{}, err
		}
		if p.Cut, err = r.cut(); err != nil {
			return Envelope{}, err
		}
		e.Payload = p
	case binAdopt:
		var p dlb.AdoptMsg
		if p.Epoch, err = r.i64(); err != nil {
			return Envelope{}, err
		}
		if p.Alive, err = r.bools(); err != nil {
			return Envelope{}, err
		}
		if p.Owned, err = r.ownedMap(); err != nil {
			return Envelope{}, err
		}
		if p.Red, err = r.floatsMap(); err != nil {
			return Envelope{}, err
		}
		if p.Cut, err = r.cut(); err != nil {
			return Envelope{}, err
		}
		e.Payload = p
	case binFloats:
		if e.Payload, err = r.floats(); err != nil {
			return Envelope{}, err
		}
	case binStatus:
		if e.Payload, err = r.status(); err != nil {
			return Envelope{}, err
		}
	case binInstr:
		if e.Payload, err = r.instr(); err != nil {
			return Envelope{}, err
		}
	default:
		return Envelope{}, corruptErr(fmt.Sprintf("unknown message type %d", typ))
	}
	if r.off != len(r.b) {
		return Envelope{}, corruptErr(fmt.Sprintf("%d trailing bytes", len(r.b)-r.off))
	}
	return e, nil
}
