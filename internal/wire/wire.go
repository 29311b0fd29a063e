// Package wire defines the serving layer's binary protocol: the framed,
// CRC-checked messages hashserved and its clients exchange over TCP
// (see DESIGN.md, "Serving layer").
//
// The format follows the repository's durability codec conventions
// (package ckpt): little-endian fixed-width words, length-prefixed
// sequences, no compression, no reflection. Every message is one frame:
//
//	frame   [4 magic "EXWF"] [1 version] [1 op] [2 reserved=0]
//	        [4 id] [4 payload length n] [n payload] [4 crc]
//
// with crc = CRC-32 (IEEE) over the 16-byte header plus the payload, so
// a torn or bit-flipped frame is detected before any of it is
// interpreted. The id is an opaque request identifier: responses echo
// the id of the request they answer, which is what lets a client
// pipeline many requests down one connection and match the (in-order)
// responses coming back.
//
// Request payload grammar (count is uint32, keys/values uint64):
//
//	INSERT, UPSERT   count, then count x (key, val)
//	LOOKUP, DELETE   count, then count x key
//	LEN, SYNC, FLUSH, STATS, PING   empty
//	REPL_SUBSCRIBE   from LSN (uint64)
//	REPL_ACK         received LSN (uint64); no response — flows
//	                 follower -> primary on a subscribed connection
//	LOOKUPAT         min LSN (uint64), count, count x key
//	INSERTAT, UPSERTAT   count, then count x (key, val)
//	DELETEAT         count, then count x key
//	INFO, PROMOTE    empty
//
// Response payload grammar:
//
//	ACK     empty (mutation applied and WAL-durable; also answers
//	        SYNC, FLUSH and PING)
//	VALUES  count, then count x (val, found byte)     answers LOOKUP
//	        and LOOKUPAT
//	FOUNDS  count, then count x found byte            answers DELETE
//	COUNT   one uint64                                answers LEN
//	STATS   field count, then that many int64s in the
//	        order documented on the Stats struct      answers STATS
//	ERR     UTF-8 error text (whole payload)
//	REPLBATCH  epoch, first LSN, count, count x (op byte, key, val);
//	           a stream of these answers REPL_SUBSCRIBE (all echoing
//	           its id); count 0 is a liveness heartbeat
//	ACKT    LSN, epoch                 answers INSERTAT and UPSERTAT
//	FOUNDST LSN, epoch, count, count x found byte     answers DELETEAT
//	INFOR   epoch, applied LSN, writable byte, role byte
//	                                  answers INFO and PROMOTE
//
// Batches are bounded: a frame whose payload exceeds MaxPayload, or a
// count prefix above MaxBatch (or beyond the payload that carries it),
// is rejected during decode with ErrTooLarge — a reader never allocates
// in proportion to an attacker-chosen length.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"extbuf"
)

// Op discriminates frame types. Requests and responses share the space;
// responses start at OpAck.
type Op uint8

// Request opcodes.
const (
	OpInsert Op = 1 // payload: count, count x (key, val)
	OpUpsert Op = 2 // payload: count, count x (key, val)
	OpLookup Op = 3 // payload: count, count x key
	OpDelete Op = 4 // payload: count, count x key
	OpLen    Op = 5 // empty
	OpSync   Op = 6 // empty: WAL acknowledgement barrier
	OpFlush  Op = 7 // empty: full checkpoint barrier
	OpStats  Op = 8 // empty
	OpPing   Op = 9 // empty

	// Replication and token-carrying requests (PR 7). Opcodes 10-15
	// fill the remaining request space below OpAck; further requests
	// continue at 32.
	OpReplSubscribe Op = 10 // from LSN: stream the op log from here
	OpReplAck       Op = 11 // received LSN: follower progress, no response
	OpLookupAt      Op = 12 // min LSN, then a key batch
	OpInsertAt      Op = 13 // key/value batch; answered by ACKT
	OpUpsertAt      Op = 14 // key/value batch; answered by ACKT
	OpDeleteAt      Op = 15 // key batch; answered by FOUNDST
	OpInfo          Op = 32 // empty; answered by INFOR
	OpPromote       Op = 33 // empty; answered by INFOR after promotion

	// TTL / CAS / scan requests (PR 10).
	OpExpire    Op = 34 // count, count x (key, deadline ms); answered by FOUNDST
	OpUpsertTTL Op = 35 // count, count x (key, val, deadline ms); answered by ACKT
	OpCAS       Op = 36 // count, count x (key, old, new); answered by FOUNDST
	OpScan      Op = 37 // cursor, max count; answered by SCANR
)

// Response opcodes.
const (
	OpAck    Op = 16 // empty
	OpValues Op = 17 // count, count x (val, found byte)
	OpFounds Op = 18 // count, count x found byte
	OpCount  Op = 19 // one uint64
	OpStatsR Op = 20 // field count, count x int64
	OpErr    Op = 21 // UTF-8 error text

	// Replication and token-carrying responses (PR 7).
	OpReplBatch Op = 22 // epoch, first LSN, count, count x (op, key, val)
	OpAckT      Op = 23 // LSN, epoch
	OpFoundsT   Op = 24 // LSN, epoch, count, count x found byte
	OpInfoR     Op = 25 // epoch, applied LSN, writable byte, role byte
	OpScanR     Op = 26 // next cursor, count, count x (key, val)
)

// String names the opcode for logs and errors.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "INSERT"
	case OpUpsert:
		return "UPSERT"
	case OpLookup:
		return "LOOKUP"
	case OpDelete:
		return "DELETE"
	case OpLen:
		return "LEN"
	case OpSync:
		return "SYNC"
	case OpFlush:
		return "FLUSH"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	case OpReplSubscribe:
		return "REPL_SUBSCRIBE"
	case OpReplAck:
		return "REPL_ACK"
	case OpLookupAt:
		return "LOOKUPAT"
	case OpInsertAt:
		return "INSERTAT"
	case OpUpsertAt:
		return "UPSERTAT"
	case OpDeleteAt:
		return "DELETEAT"
	case OpInfo:
		return "INFO"
	case OpPromote:
		return "PROMOTE"
	case OpExpire:
		return "EXPIRE"
	case OpUpsertTTL:
		return "UPSERTTTL"
	case OpCAS:
		return "CAS"
	case OpScan:
		return "SCAN"
	case OpAck:
		return "ACK"
	case OpValues:
		return "VALUES"
	case OpFounds:
		return "FOUNDS"
	case OpCount:
		return "COUNT"
	case OpStatsR:
		return "STATSR"
	case OpErr:
		return "ERR"
	case OpReplBatch:
		return "REPLBATCH"
	case OpAckT:
		return "ACKT"
	case OpFoundsT:
		return "FOUNDST"
	case OpInfoR:
		return "INFOR"
	case OpScanR:
		return "SCANR"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

const (
	// Version is the protocol version carried by every frame. A reader
	// rejects frames of any other version.
	Version = 1

	magic = 0x46575845 // "EXWF", little-endian

	// HeaderBytes is the fixed frame header size.
	HeaderBytes = 16
	// trailerBytes is the CRC trailer size.
	trailerBytes = 4

	// MaxBatch bounds the operations in one request frame.
	MaxBatch = 1 << 16
	// MaxPayload bounds a frame payload: the largest legal batch (a
	// key/value batch of MaxBatch pairs plus its count prefix). Anything
	// longer is rejected before it is read.
	MaxPayload = 4 + MaxBatch*16

	// MaxReplBatch bounds the records in one REPLBATCH frame: 17 bytes
	// per record plus the 20-byte prefix stays well inside MaxPayload.
	MaxReplBatch = 1 << 15

	// MaxTripleBatch bounds the operations in a triple-column request
	// (UPSERTTTL, CAS): the largest 24-byte-stride batch whose payload
	// still fits MaxPayload, so the reader's allocation bound is
	// unchanged.
	MaxTripleBatch = (MaxPayload - 4) / 24
)

// Error-text prefixes for replication routing errors carried in ERR
// frames. They are protocol, not presentation: clients match on them
// to decide whether to re-route a request to another node.
const (
	// ErrTextReadOnly prefixes rejections of mutations sent to a
	// non-writable node (a follower) — re-route to the primary.
	ErrTextReadOnly = "READONLY"
	// ErrTextBehind prefixes rejections of token-carrying reads on a
	// replica that could not catch up to the token in time — retry
	// here, or read from a fresher node.
	ErrTextBehind = "BEHIND"
)

// ErrFrame is returned (wrapped) for a structurally invalid frame: bad
// magic, unsupported version, nonzero reserved bytes, or a CRC
// mismatch.
var ErrFrame = errors.New("wire: invalid frame")

// ErrTooLarge is returned for a frame payload above MaxPayload or a
// batch count above MaxBatch (or beyond its payload) — the reader's
// allocation bound.
var ErrTooLarge = errors.New("wire: frame exceeds protocol limits")

// Frame is one decoded message. Payload aliases the Reader's internal
// buffer and is valid only until the next call to Next.
type Frame struct {
	Op      Op
	ID      uint32
	Payload []byte
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. The payload is copied; callers reuse their payload scratch
// immediately.
func AppendFrame(dst []byte, op Op, id uint32, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("wire: payload of %d bytes exceeds MaxPayload", len(payload)))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = append(dst, Version, byte(op), 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Reader decodes a frame stream. It owns a reusable frame buffer, so a
// steady-state connection loop performs no per-frame allocation.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader returns a Reader decoding frames from r. Callers that can
// batch reads should hand in a buffered reader; Reader issues one Read
// sequence per frame section.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads and validates one frame. The returned Frame's Payload
// aliases the Reader's buffer — valid only until the next call. A clean
// end of stream between frames returns io.EOF; a stream ending inside a
// frame returns io.ErrUnexpectedEOF (a torn frame).
func (r *Reader) Next() (Frame, error) {
	if cap(r.buf) < HeaderBytes {
		r.buf = make([]byte, 4096)
	}
	hdr := r.buf[:HeaderBytes]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		return Frame{}, err // io.EOF at a frame boundary, ErrUnexpectedEOF inside the header
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != magic {
		return Frame{}, fmt.Errorf("%w: bad magic %#x", ErrFrame, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if hdr[4] != Version {
		return Frame{}, fmt.Errorf("%w: unsupported version %d", ErrFrame, hdr[4])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero reserved bytes", ErrFrame)
	}
	n := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: payload of %d bytes", ErrTooLarge, n)
	}
	total := HeaderBytes + n + trailerBytes
	if cap(r.buf) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		r.buf = grown
	} else {
		r.buf = r.buf[:cap(r.buf)]
	}
	if _, err := io.ReadFull(r.r, r.buf[HeaderBytes:total]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream died inside the frame
		}
		return Frame{}, err
	}
	body := r.buf[:HeaderBytes+n]
	want := binary.LittleEndian.Uint32(r.buf[HeaderBytes+n : total])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Frame{}, fmt.Errorf("%w: crc %#x, want %#x", ErrFrame, got, want)
	}
	return Frame{
		Op:      Op(r.buf[5]),
		ID:      binary.LittleEndian.Uint32(r.buf[8:12]),
		Payload: r.buf[HeaderBytes : HeaderBytes+n],
	}, nil
}

// AppendKV appends a key/value batch payload (INSERT/UPSERT). It panics
// if the slices differ in length or exceed MaxBatch — both are caller
// bugs, checked before anything reaches a socket.
func AppendKV(dst []byte, keys, vals []uint64) []byte {
	if len(keys) != len(vals) {
		panic("wire: key/value batch length mismatch")
	}
	if len(keys) > MaxBatch {
		panic("wire: batch exceeds MaxBatch")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for i := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, keys[i])
		dst = binary.LittleEndian.AppendUint64(dst, vals[i])
	}
	return dst
}

// DecodeKVInto appends the decoded key/value batch of p to keys and
// vals and returns the extended slices. The count prefix is validated
// against MaxBatch and the payload length before anything is copied.
func DecodeKVInto(p []byte, keys, vals []uint64) ([]uint64, []uint64, error) {
	n, body, err := batchHeader(p, 16)
	if err != nil {
		return keys, vals, err
	}
	for i := 0; i < n; i++ {
		keys = append(keys, binary.LittleEndian.Uint64(body[i*16:]))
		vals = append(vals, binary.LittleEndian.Uint64(body[i*16+8:]))
	}
	return keys, vals, nil
}

// AppendKeys appends a key batch payload (LOOKUP/DELETE). It panics if
// the batch exceeds MaxBatch.
func AppendKeys(dst []byte, keys []uint64) []byte {
	if len(keys) > MaxBatch {
		panic("wire: batch exceeds MaxBatch")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// DecodeKeysInto appends the decoded key batch of p to keys.
func DecodeKeysInto(p []byte, keys []uint64) ([]uint64, error) {
	n, body, err := batchHeader(p, 8)
	if err != nil {
		return keys, err
	}
	for i := 0; i < n; i++ {
		keys = append(keys, binary.LittleEndian.Uint64(body[i*8:]))
	}
	return keys, nil
}

// AppendValues appends a VALUES response payload: vals[i] and found[i]
// answer the i-th looked-up key.
func AppendValues(dst []byte, vals []uint64, found []bool) []byte {
	if len(vals) != len(found) {
		panic("wire: value/found length mismatch")
	}
	if len(vals) > MaxBatch {
		panic("wire: batch exceeds MaxBatch")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	for i := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, vals[i])
		if found[i] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeValuesInto appends the decoded VALUES payload to vals and
// found.
func DecodeValuesInto(p []byte, vals []uint64, found []bool) ([]uint64, []bool, error) {
	n, body, err := batchHeader(p, 9)
	if err != nil {
		return vals, found, err
	}
	for i := 0; i < n; i++ {
		vals = append(vals, binary.LittleEndian.Uint64(body[i*9:]))
		found = append(found, body[i*9+8] != 0)
	}
	return vals, found, nil
}

// AppendFounds appends a FOUNDS response payload (DELETE results).
func AppendFounds(dst []byte, found []bool) []byte {
	if len(found) > MaxBatch {
		panic("wire: batch exceeds MaxBatch")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(found)))
	for _, ok := range found {
		if ok {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeFoundsInto appends the decoded FOUNDS payload to found.
func DecodeFoundsInto(p []byte, found []bool) ([]bool, error) {
	n, body, err := batchHeader(p, 1)
	if err != nil {
		return found, err
	}
	for i := 0; i < n; i++ {
		found = append(found, body[i] != 0)
	}
	return found, nil
}

// AppendTriples appends a triple-column batch payload: UPSERTTTL's
// (key, val, deadline) or CAS's (key, old, new). It panics on length
// mismatches or batches above MaxTripleBatch — caller bugs.
func AppendTriples(dst []byte, a, b, c []uint64) []byte {
	if len(a) != len(b) || len(a) != len(c) {
		panic("wire: triple batch length mismatch")
	}
	if len(a) > MaxTripleBatch {
		panic("wire: batch exceeds MaxTripleBatch")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a)))
	for i := range a {
		dst = binary.LittleEndian.AppendUint64(dst, a[i])
		dst = binary.LittleEndian.AppendUint64(dst, b[i])
		dst = binary.LittleEndian.AppendUint64(dst, c[i])
	}
	return dst
}

// DecodeTriplesInto appends the decoded triple-column batch of p to the
// three column slices.
func DecodeTriplesInto(p []byte, a, b, c []uint64) ([]uint64, []uint64, []uint64, error) {
	n, body, err := batchHeader(p, 24)
	if err != nil {
		return a, b, c, err
	}
	for i := 0; i < n; i++ {
		a = append(a, binary.LittleEndian.Uint64(body[i*24:]))
		b = append(b, binary.LittleEndian.Uint64(body[i*24+8:]))
		c = append(c, binary.LittleEndian.Uint64(body[i*24+16:]))
	}
	return a, b, c, nil
}

// AppendScan appends a SCAN request payload: the resume cursor (0
// starts a scan) and the page size the client wants.
func AppendScan(dst []byte, cursor uint64, max uint32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, cursor)
	return binary.LittleEndian.AppendUint32(dst, max)
}

// DecodeScan decodes a SCAN request payload.
func DecodeScan(p []byte) (cursor uint64, max uint32, err error) {
	if len(p) != 12 {
		return 0, 0, fmt.Errorf("%w: %d-byte SCAN payload", ErrFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint32(p[8:]), nil
}

// AppendScanR appends a SCANR response payload: the cursor for the next
// page (extbuf.ScanDone when exhausted) and this page's entries.
func AppendScanR(dst []byte, next uint64, keys, vals []uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, next)
	return AppendKV(dst, keys, vals)
}

// DecodeScanRInto decodes a SCANR payload, appending the entries.
func DecodeScanRInto(p []byte, keys, vals []uint64) (next uint64, outK, outV []uint64, err error) {
	if len(p) < 8 {
		return 0, keys, vals, fmt.Errorf("%w: %d-byte SCANR payload", ErrFrame, len(p))
	}
	next = binary.LittleEndian.Uint64(p)
	outK, outV, err = DecodeKVInto(p[8:], keys, vals)
	return next, outK, outV, err
}

// batchHeader validates a count-prefixed payload whose entries are
// stride bytes each and returns the count and entry bytes.
func batchHeader(p []byte, stride int) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w: %d-byte batch payload", ErrFrame, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > MaxBatch {
		return 0, nil, fmt.Errorf("%w: batch of %d operations", ErrTooLarge, n)
	}
	if len(p) != 4+n*stride {
		return 0, nil, fmt.Errorf("%w: batch of %d needs %d payload bytes, frame has %d",
			ErrFrame, n, 4+n*stride, len(p))
	}
	return n, p[4:], nil
}

// AppendCount appends a COUNT response payload.
func AppendCount(dst []byte, n uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, n)
}

// DecodeCount decodes a COUNT response payload.
func DecodeCount(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: %d-byte COUNT payload", ErrFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// AppendLSN appends a bare-LSN payload (REPL_SUBSCRIBE, REPL_ACK).
func AppendLSN(dst []byte, lsn uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, lsn)
}

// DecodeLSN decodes a bare-LSN payload.
func DecodeLSN(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: %d-byte LSN payload", ErrFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// AppendLookupAt appends a LOOKUPAT request payload: the minimum LSN
// the serving node must have applied, then the key batch.
func AppendLookupAt(dst []byte, minLSN uint64, keys []uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, minLSN)
	return AppendKeys(dst, keys)
}

// DecodeLookupAtInto decodes a LOOKUPAT payload, appending the keys.
func DecodeLookupAtInto(p []byte, keys []uint64) (uint64, []uint64, error) {
	if len(p) < 8 {
		return 0, keys, fmt.Errorf("%w: %d-byte LOOKUPAT payload", ErrFrame, len(p))
	}
	minLSN := binary.LittleEndian.Uint64(p)
	keys, err := DecodeKeysInto(p[8:], keys)
	return minLSN, keys, err
}

// AppendAckT appends an ACKT response payload: the LSN assigned to the
// mutation batch's last record and the node's replication epoch.
func AppendAckT(dst []byte, lsn, epoch uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

// DecodeAckT decodes an ACKT response payload.
func DecodeAckT(p []byte) (lsn, epoch uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("%w: %d-byte ACKT payload", ErrFrame, len(p))
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), nil
}

// AppendFoundsT appends a FOUNDST response payload: ACKT's (LSN, epoch)
// followed by the per-key found bytes of the delete batch.
func AppendFoundsT(dst []byte, lsn, epoch uint64, found []bool) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return AppendFounds(dst, found)
}

// DecodeFoundsTInto decodes a FOUNDST payload, appending the founds.
func DecodeFoundsTInto(p []byte, found []bool) (lsn, epoch uint64, out []bool, err error) {
	if len(p) < 16 {
		return 0, 0, found, fmt.Errorf("%w: %d-byte FOUNDST payload", ErrFrame, len(p))
	}
	lsn = binary.LittleEndian.Uint64(p)
	epoch = binary.LittleEndian.Uint64(p[8:])
	out, err = DecodeFoundsInto(p[16:], found)
	return lsn, epoch, out, err
}

// Node roles carried by INFOR.
const (
	RolePrimary  = 1 // accepts mutations, sources replication
	RoleFollower = 2 // replays a primary's stream, serves reads
)

// Info is a node's replication identity: which epoch it is in, how far
// it has applied, and whether it accepts mutations. Clients use it to
// find the writable node after a failover.
type Info struct {
	Epoch      uint64
	AppliedLSN uint64
	Writable   bool
	Role       uint8
}

// AppendInfo appends an INFOR response payload.
func AppendInfo(dst []byte, info Info) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, info.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, info.AppliedLSN)
	if info.Writable {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return append(dst, info.Role)
}

// DecodeInfo decodes an INFOR response payload.
func DecodeInfo(p []byte) (Info, error) {
	if len(p) != 18 {
		return Info{}, fmt.Errorf("%w: %d-byte INFOR payload", ErrFrame, len(p))
	}
	return Info{
		Epoch:      binary.LittleEndian.Uint64(p),
		AppliedLSN: binary.LittleEndian.Uint64(p[8:]),
		Writable:   p[16] != 0,
		Role:       p[17],
	}, nil
}

// ReplRec is one replicated operation in a REPLBATCH frame. Op uses
// the WAL's operation codes (1 insert, 2 upsert, 3 delete); the LSN is
// implicit — record i of a batch starting at firstLSN has LSN
// firstLSN+i.
type ReplRec struct {
	Op       uint8
	Key, Val uint64
}

// AppendReplBatch appends a REPLBATCH response payload. An empty batch
// (heartbeat) carries only the epoch and next-LSN-to-ship prefix. It
// panics on batches above MaxReplBatch — a source bug.
func AppendReplBatch(dst []byte, epoch, firstLSN uint64, recs []ReplRec) []byte {
	if len(recs) > MaxReplBatch {
		panic("wire: repl batch exceeds MaxReplBatch")
	}
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, firstLSN)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = append(dst, r.Op)
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	}
	return dst
}

// DecodeReplBatchInto decodes a REPLBATCH payload, appending records.
func DecodeReplBatchInto(p []byte, recs []ReplRec) (epoch, firstLSN uint64, out []ReplRec, err error) {
	if len(p) < 20 {
		return 0, 0, recs, fmt.Errorf("%w: %d-byte REPLBATCH payload", ErrFrame, len(p))
	}
	epoch = binary.LittleEndian.Uint64(p)
	firstLSN = binary.LittleEndian.Uint64(p[8:])
	n := int(binary.LittleEndian.Uint32(p[16:]))
	if n > MaxReplBatch {
		return 0, 0, recs, fmt.Errorf("%w: repl batch of %d records", ErrTooLarge, n)
	}
	body := p[20:]
	if len(body) != n*17 {
		return 0, 0, recs, fmt.Errorf("%w: repl batch of %d needs %d payload bytes, frame has %d",
			ErrFrame, n, n*17, len(body))
	}
	for i := 0; i < n; i++ {
		recs = append(recs, ReplRec{
			Op:  body[i*17],
			Key: binary.LittleEndian.Uint64(body[i*17+1:]),
			Val: binary.LittleEndian.Uint64(body[i*17+9:]),
		})
	}
	return epoch, firstLSN, recs, nil
}

// Stats is the wire form of the server's STATS reply: the engine's
// length and memory gauges, its model counters (extbuf.Stats), and the
// aggregated backend real-cost counters (extbuf.StoreStats) — carried
// as those structs directly, so the engine, server and client never
// copy counters field by field. Encoded as a field count and then the
// fields as int64s in statsFields order, so a newer server may append
// fields without breaking an older decoder.
type Stats struct {
	Len        int64
	MemoryUsed int64
	Ops        extbuf.Stats
	Store      extbuf.StoreStats
	Repl       extbuf.ReplStats
	Expiry     extbuf.ExpiryStats

	// retired keeps the five positions of the kernel-bypass tier's
	// counters (PR 9; the tier was deleted in PR 25): DecodeStats drops
	// what a peer sends there, so they are always encoded as zero, and
	// peers on either side of the deletion still agree on where every
	// later field sits.
	retired [5]int64
}

// statsFields lists the encoded fields in wire order. The order is the
// protocol; append only.
func (s *Stats) statsFields() []*int64 {
	return []*int64{
		&s.Len, &s.MemoryUsed, &s.Ops.Reads, &s.Ops.Writes, &s.Ops.WriteBacks,
		&s.Store.ReadSyscalls, &s.Store.WriteSyscalls, &s.Store.CacheHits, &s.Store.CacheMisses,
		&s.Store.BytesRead, &s.Store.BytesWritten, &s.Store.Evictions, &s.Store.DirtyWritebacks,
		&s.Store.FlushedFrames, &s.Store.FlushRuns, &s.Store.Fsyncs, &s.Store.WALSpills, &s.Store.WALFsyncs,
		&s.Store.FsyncsElided, &s.Store.GhostHits, &s.Store.WALFsyncsElided,
		// PR 7: replication counters.
		&s.Repl.Epoch, &s.Repl.CurrentLSN, &s.Repl.FollowerLag, &s.Repl.FramesShipped, &s.Repl.FramesReplayed,
		// PR 8: ship-log retained-window start (append-only, like every
		// extension above — old decoders ignore it, old encoders leave
		// it zero).
		&s.Repl.ShipStartLSN,
		// PR 9: kernel-bypass I/O tier counters, retired.
		&s.retired[0], &s.retired[1], &s.retired[2], &s.retired[3], &s.retired[4],
		// PR 10: TTL expiry counters.
		&s.Expiry.Tracked, &s.Expiry.LazyHits, &s.Expiry.Swept,
	}
}

// AppendStats appends a STATS response payload.
func AppendStats(dst []byte, s Stats) []byte {
	fields := s.statsFields()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fields)))
	for _, f := range fields {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(*f))
	}
	return dst
}

// DecodeStats decodes a STATS response payload. Extra trailing fields
// from a newer server are ignored; missing fields decode as zero.
func DecodeStats(p []byte) (Stats, error) {
	var s Stats
	if len(p) < 4 {
		return s, fmt.Errorf("%w: %d-byte STATS payload", ErrFrame, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > 1024 {
		return s, fmt.Errorf("%w: STATS with %d fields", ErrTooLarge, n)
	}
	if len(p) != 4+n*8 {
		return s, fmt.Errorf("%w: STATS of %d fields needs %d payload bytes, frame has %d",
			ErrFrame, n, 4+n*8, len(p))
	}
	fields := s.statsFields()
	for i := 0; i < n && i < len(fields); i++ {
		*fields[i] = int64(binary.LittleEndian.Uint64(p[4+i*8:]))
	}
	s.retired = [5]int64{}
	return s, nil
}
