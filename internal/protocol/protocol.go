// Package protocol defines the wire messages exchanged between the fusion
// centre and the vehicles when L-CoFL runs as an actual distributed system
// (package transport carries them; package node speaks them).
//
// There is one protocol revision, Version. Every message travels in a
// frame: a 4-byte big-endian length, a 4-byte CRC-32 (IEEE) of the body,
// then the body. The framing bounds message size so a malformed or
// malicious peer cannot force unbounded allocation, and the checksum turns
// channel corruption into a *detected*, frame-local error: Read consumes
// the corrupted frame entirely and returns ErrCorruptFrame, so the stream
// stays in sync and the caller can keep reading subsequent frames instead
// of tearing the connection down (package node counts these and prompts a
// retransmit; see DESIGN.md §11).
//
// The two bulk messages, Broadcast and Upload, always travel as binary
// bodies: raw little-endian float64 payloads, about 2.5x smaller than
// their decimal-text JSON form and bit-exact for every IEEE 754 value
// (DESIGN.md §13). With tracing on they carry the round span context in
// two context-bearing binary kinds (DESIGN.md §15). Every other message
// is a control message and travels as a JSON envelope, which keeps the
// handshake debuggable. Read rejects a bulk message with a JSON body, and
// Write refuses a bulk message the binary layout cannot carry, so each
// message has exactly one encoding on the wire.
//
// The fleet messages (DESIGN.md §16) are Hello.SessionID, which routes a
// connection to one of many concurrent FL sessions behind one listener,
// and Admission, which answers a handshake with an explicit queue or
// reject decision before any Setup exists.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the protocol revision carried in Hello and Setup. Both ends
// must speak exactly this revision: a fusion centre refuses a Hello that
// announces any other, and a vehicle refuses a Setup that does.
const Version = 6

// ErrCorruptFrame reports a frame whose body failed its CRC-32 check. The
// frame has been fully consumed when Read returns it, so the connection
// remains usable: callers that can tolerate message loss (the chaos-aware
// node layer) match it with errors.Is, count the corruption, and continue
// reading.
var ErrCorruptFrame = errors.New("protocol: corrupt frame (checksum mismatch)")

// MaxMessageSize bounds a single frame (16 MiB) — far above any real
// L-CoFL message, low enough to stop allocation bombs.
const MaxMessageSize = 16 << 20

// Message is the union of all wire messages. Exactly one pointer field is
// non-nil.
type Message struct {
	Hello     *Hello     `json:"hello,omitempty"`
	Setup     *Setup     `json:"setup,omitempty"`
	Broadcast *Broadcast `json:"broadcast,omitempty"`
	Upload    *Upload    `json:"upload,omitempty"`
	Admission *Admission `json:"admission,omitempty"`
	Finished  *Finished  `json:"finished,omitempty"`
	Error     *Error     `json:"error,omitempty"`
}

// Hello opens a connection: the vehicle announces itself.
type Hello struct {
	// Version is the sender's protocol revision; it must equal Version.
	Version int `json:"version"`
	// VehicleID identifies the vehicle (assigned out of band).
	VehicleID int `json:"vehicle_id"`
	// TraceID is the vehicle process's own trace ID (canonical 16-digit
	// hex, see internal/obs FormatID), recorded by the fusion centre so
	// a merged timeline can link per-process trace files. Empty when the
	// vehicle runs untraced.
	TraceID string `json:"trace_id,omitempty"`
	// SessionID names the FL session this connection joins on a
	// multi-session fleet. Empty selects the fleet's default session; a
	// single-session fusion centre ignores it.
	SessionID string `json:"session_id,omitempty"`
}

// Setup configures a vehicle at session start.
type Setup struct {
	// InputSize is the feature-vector length.
	InputSize int `json:"input_size"`
	// LocalEpochs and LocalRate configure local SGD (paper eq. 1).
	LocalEpochs int     `json:"local_epochs"`
	LocalRate   float64 `json:"local_rate"`
	// ActivationCoeffs holds the polynomial activation the vehicles must
	// install (paper §IV Step 2); empty means the exact symmetric
	// sigmoid.
	ActivationCoeffs []float64 `json:"activation_coeffs,omitempty"`
	// RefX is the fusion centre's reference feature set.
	RefX [][]float64 `json:"ref_x"`
	// SchemeVehicles, SchemeBatches, SchemeDegree and SchemeSeed let the
	// vehicle rebuild the identical (deterministic) L-CoFL scheme so its
	// encoded shares match the fusion centre's.
	SchemeVehicles int   `json:"scheme_vehicles"`
	SchemeBatches  int   `json:"scheme_batches"`
	SchemeDegree   int   `json:"scheme_degree"`
	SchemeSeed     int64 `json:"scheme_seed"`
	// WireVersion is the fusion centre's protocol revision. It always
	// carries Version, and a vehicle refuses a Setup with any other
	// value. It stays on the wire so a pass-through observer that sees
	// only the connection's messages can read the revision its bulk
	// frames were encoded at.
	WireVersion int `json:"wire_version,omitempty"`
	// TraceID is the session trace every process joins (derived from
	// SchemeSeed on both sides; carried explicitly so a vehicle adopts
	// the fusion centre's trace even if derivation rules ever diverge
	// across releases). Empty when the fusion centre runs untraced.
	TraceID string `json:"trace_id,omitempty"`
	// HelloNs and ClockNs are the fusion centre's clock readings (ns
	// since its obs.Clock epoch) when the connection's Hello arrived and
	// when this Setup was sent. With the vehicle's own send/receive
	// stamps they give the RTT-midpoint clock-offset estimate recorded
	// as the node.clock_offset trace event (DESIGN.md §15). Zero when
	// the fusion centre runs untraced.
	HelloNs int64 `json:"hello_ns,omitempty"`
	ClockNs int64 `json:"clock_ns,omitempty"`
}

// Broadcast starts a round: the shared model parameters.
type Broadcast struct {
	// Round is the 1-based round number.
	Round int `json:"round"`
	// Params is the shared model's flat parameter vector.
	Params []float64 `json:"params"`
	// TraceID/SpanID carry the fusion centre's round span context so
	// vehicle-side train/encode/upload spans can parent under it. Both
	// canonical 16-digit hex; empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Upload carries a vehicle's round contribution.
type Upload struct {
	// Round echoes the broadcast round.
	Round int `json:"round"`
	// VehicleID identifies the sender.
	VehicleID int `json:"vehicle_id"`
	// Values is the scheme-defined upload vector.
	Values []float64 `json:"values"`
	// TraceID/SpanID carry the vehicle's upload span context so the
	// fusion centre's ingest event can parent under the send that
	// produced it. Empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Admission answers a Hello on a fleet-scale fusion centre when Setup
// cannot follow immediately: the connection was queued behind the fleet's
// connection budget, or rejected outright. Acceptance is implied by Setup
// itself, so an admitted vehicle never waits on an extra frame.
type Admission struct {
	// Queued reports the connection is parked in the fleet's admission
	// queue; the vehicle should keep waiting for Setup.
	Queued bool `json:"queued,omitempty"`
	// Reason describes a rejection (or the queueing) in human terms.
	Reason string `json:"reason,omitempty"`
	// Retry hints that a rejection is temporary — the fleet was full —
	// and a later reconnect may be admitted.
	Retry bool `json:"retry,omitempty"`
}

// Finished ends the session.
type Finished struct {
	// Rounds is the number of completed rounds.
	Rounds int `json:"rounds"`
}

// Error reports a fatal condition to the peer before closing.
type Error struct {
	// Reason is a human-readable description.
	Reason string `json:"reason"`
}

// Kind returns the message discriminator ("hello", "upload", …) — used
// in errors and as the message-type label on transport telemetry.
func (m *Message) Kind() string { return m.kind() }

// TraceContext returns the trace/span context the message carries
// ("", "" when none): round context on the bulk messages, the session
// trace on Hello/Setup. Transport telemetry attaches it to the
// per-message send/recv events.
func (m *Message) TraceContext() (trace, span string) {
	switch {
	case m.Broadcast != nil:
		return m.Broadcast.TraceID, m.Broadcast.SpanID
	case m.Upload != nil:
		return m.Upload.TraceID, m.Upload.SpanID
	case m.Hello != nil:
		return m.Hello.TraceID, ""
	case m.Setup != nil:
		return m.Setup.TraceID, ""
	}
	return "", ""
}

// EncodedSize returns the on-wire size of the message in bytes: the
// 4-byte length prefix plus the body Write would emit (the CRC word is
// not counted), or 0 when Write would refuse the message. A bulk message
// is sized by arithmetic, without encoding it. The instrumented transport
// uses it to account bytes per connection.
func EncodedSize(m *Message) int {
	if m.bulk() {
		if binaryError(m) != nil {
			return 0
		}
		return 4 + binaryBodyLen(m)
	}
	body, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	return 4 + len(body)
}

// EncodedSizeVersion is EncodedSize; the revision argument is ignored
// because only one revision exists. It is kept for callers that size
// frames at the revision a Setup announced, such as the pass-through
// connection taps of the perfbench harness, which is built against this
// package and must keep compiling unchanged.
func EncodedSizeVersion(m *Message, _ int) int { return EncodedSize(m) }

// bulk reports whether m is one of the binary-bodied messages.
func (m *Message) bulk() bool { return m.Broadcast != nil || m.Upload != nil }

// kind returns the message discriminator for validation and errors.
func (m *Message) kind() string {
	switch {
	case m.Hello != nil:
		return "hello"
	case m.Setup != nil:
		return "setup"
	case m.Broadcast != nil:
		return "broadcast"
	case m.Upload != nil:
		return "upload"
	case m.Admission != nil:
		return "admission"
	case m.Finished != nil:
		return "finished"
	case m.Error != nil:
		return "error"
	}
	return ""
}

// Validate checks that exactly one variant is set.
func (m *Message) Validate() error {
	count := 0
	for _, set := range []bool{
		m.Hello != nil, m.Setup != nil, m.Broadcast != nil,
		m.Upload != nil, m.Admission != nil,
		m.Finished != nil, m.Error != nil,
	} {
		if set {
			count++
		}
	}
	if count != 1 {
		return fmt.Errorf("protocol: message must carry exactly one variant, has %d", count)
	}
	return nil
}

// headerLen is the frame header size: 4-byte length + 4-byte CRC-32.
const headerLen = 8

// Binary body encoding of the bulk messages (DESIGN.md §13). The body
// sits inside the usual length+CRC frame:
//
//	byte 0: binaryMagic (0xB3)
//	byte 1: kind
//	1 broadcast:     round u32 LE, count u32 LE, count x 8-byte LE float64 bits
//	2 upload:        round u32 LE, vehicle u32 LE, count u32 LE, count x 8 bytes
//	3 broadcast+ctx: trace u64 LE, span u64 LE, then the broadcast layout
//	4 upload+ctx:    trace u64 LE, span u64 LE, then the upload layout
//
// 0xB3 cannot open a JSON value, so the first body byte tells the two
// encodings apart. Floats travel as IEEE 754 bit patterns, bit-exact
// round trips included for NaN payloads that JSON cannot represent at
// all. The context kinds carry the trace and span IDs of DESIGN.md §15;
// a context kind with either ID zero is rejected, so every accepted frame
// re-encodes to identical bytes.
const binaryMagic = 0xB3

const (
	binaryKindBroadcast    = 1
	binaryKindUpload       = 2
	binaryKindBroadcastCtx = 3
	binaryKindUploadCtx    = 4
)

// maxBinaryValues caps the float count so a binary body respects
// MaxMessageSize even under the largest (upload+ctx) header.
const maxBinaryValues = (MaxMessageSize - 30) / 8

// binaryError reports why the binary layout cannot carry the bulk
// message m, or nil when it can: the integer fields must fit their
// fixed-width slots, the payload must respect MaxMessageSize, and trace
// context must be absent or a complete pair of canonical nonzero IDs.
func binaryError(m *Message) error {
	var round, vehicle, n int
	var trace, span string
	if b := m.Broadcast; b != nil {
		round, n, trace, span = b.Round, len(b.Params), b.TraceID, b.SpanID
	} else {
		u := m.Upload
		round, vehicle, n, trace, span = u.Round, u.VehicleID, len(u.Values), u.TraceID, u.SpanID
	}
	switch {
	case !fitsUint32(round):
		return fmt.Errorf("protocol: %s round %d does not fit the binary layout", m.kind(), round)
	case !fitsUint32(vehicle):
		return fmt.Errorf("protocol: %s vehicle ID %d does not fit the binary layout", m.kind(), vehicle)
	case n > maxBinaryValues:
		return fmt.Errorf("protocol: %s of %d values exceeds the size limit", m.kind(), n)
	case trace == "" && span == "":
		return nil
	}
	t, okT := canonicalID(trace)
	sp, okS := canonicalID(span)
	if !okT || !okS || t == 0 || sp == 0 {
		return fmt.Errorf("protocol: %s trace context (%q, %q) is not a canonical nonzero ID pair", m.kind(), trace, span)
	}
	return nil
}

// canonicalID parses an ID in canonical wire form — exactly 16 lowercase
// hex digits — and reports whether it was one.
func canonicalID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 16; i++ {
		var d uint64
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// formatID16 renders an ID in canonical wire form (the inverse of
// canonicalID); zero — "no context" — renders as "".
func formatID16(id uint64) string {
	if id == 0 {
		return ""
	}
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = "0123456789abcdef"[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

func fitsUint32(v int) bool { return v >= 0 && int64(v) <= math.MaxUint32 }

// binaryBodyLen returns the body length of an encodable bulk message.
func binaryBodyLen(m *Message) int {
	if b := m.Broadcast; b != nil {
		n := 10 + 8*len(b.Params)
		if b.TraceID != "" {
			n += 16
		}
		return n
	}
	u := m.Upload
	n := 14 + 8*len(u.Values)
	if u.TraceID != "" {
		n += 16
	}
	return n
}

// appendBinary encodes an encodable bulk message into dst.
func appendBinary(dst []byte, m *Message) []byte {
	if b := m.Broadcast; b != nil {
		if b.TraceID == "" {
			dst = append(dst, binaryMagic, binaryKindBroadcast)
		} else {
			trace, _ := canonicalID(b.TraceID)
			span, _ := canonicalID(b.SpanID)
			dst = append(dst, binaryMagic, binaryKindBroadcastCtx)
			dst = binary.LittleEndian.AppendUint64(dst, trace)
			dst = binary.LittleEndian.AppendUint64(dst, span)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Round))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Params)))
		for _, v := range b.Params {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst
	}
	u := m.Upload
	if u.TraceID == "" {
		dst = append(dst, binaryMagic, binaryKindUpload)
	} else {
		trace, _ := canonicalID(u.TraceID)
		span, _ := canonicalID(u.SpanID)
		dst = append(dst, binaryMagic, binaryKindUploadCtx)
		dst = binary.LittleEndian.AppendUint64(dst, trace)
		dst = binary.LittleEndian.AppendUint64(dst, span)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(u.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(u.VehicleID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(u.Values)))
	for _, v := range u.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// parseBinary decodes a binary body (first byte already known to be
// binaryMagic). Every length is validated exactly: a body that is too
// short, too long, or over-counted is a frame-local error, mirroring the
// strictness JSON unmarshalling provides on the text path.
func parseBinary(body []byte) (*Message, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("protocol: binary body of %d bytes lacks a kind", len(body))
	}
	kind := body[1]
	rest := body[2:]
	readU32 := func() uint32 {
		v := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		return v
	}
	readU64 := func() uint64 {
		v := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		return v
	}
	// readCtx consumes the trace/span prefix of a context kind. Partial
	// or zero context is a frame-local error: Write only emits complete
	// contexts (see binaryError), so every accepted frame re-encodes to
	// identical bytes.
	readCtx := func(kindName string) (trace, span uint64, err error) {
		trace = readU64()
		span = readU64()
		if trace == 0 || span == 0 {
			return 0, 0, fmt.Errorf("protocol: binary %s carries a zero trace/span ID", kindName)
		}
		return trace, span, nil
	}
	switch kind {
	case binaryKindBroadcast, binaryKindBroadcastCtx:
		bc := &Broadcast{}
		minLen := 8
		if kind == binaryKindBroadcastCtx {
			minLen += 16
		}
		if len(rest) < minLen {
			return nil, fmt.Errorf("protocol: binary broadcast header truncated (%d bytes)", len(rest))
		}
		if kind == binaryKindBroadcastCtx {
			trace, span, err := readCtx("broadcast")
			if err != nil {
				return nil, err
			}
			bc.TraceID, bc.SpanID = formatID16(trace), formatID16(span)
		}
		bc.Round = int(readU32())
		count := readU32()
		if count > maxBinaryValues || len(rest) != 8*int(count) {
			return nil, fmt.Errorf("protocol: binary broadcast declares %d values in %d payload bytes", count, len(rest))
		}
		bc.Params = readFloats(rest, int(count))
		return &Message{Broadcast: bc}, nil
	case binaryKindUpload, binaryKindUploadCtx:
		up := &Upload{}
		minLen := 12
		if kind == binaryKindUploadCtx {
			minLen += 16
		}
		if len(rest) < minLen {
			return nil, fmt.Errorf("protocol: binary upload header truncated (%d bytes)", len(rest))
		}
		if kind == binaryKindUploadCtx {
			trace, span, err := readCtx("upload")
			if err != nil {
				return nil, err
			}
			up.TraceID, up.SpanID = formatID16(trace), formatID16(span)
		}
		up.Round = int(readU32())
		up.VehicleID = int(readU32())
		count := readU32()
		if count > maxBinaryValues || len(rest) != 8*int(count) {
			return nil, fmt.Errorf("protocol: binary upload declares %d values in %d payload bytes", count, len(rest))
		}
		up.Values = readFloats(rest, int(count))
		return &Message{Upload: up}, nil
	}
	return nil, fmt.Errorf("protocol: unknown binary message kind %d", kind)
}

func readFloats(b []byte, count int) []float64 {
	if count == 0 {
		return nil
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Write frames and writes one message: Broadcast and Upload as binary
// bodies, every other message as JSON. A bulk message the binary layout
// cannot carry (see binaryError) is refused rather than sent in another
// encoding.
func Write(w io.Writer, m *Message) error {
	return writeFrame(w, m, 0)
}

// WriteCorrupt frames and writes one message with a deliberately wrong
// checksum, so the receiver's Read returns ErrCorruptFrame while the
// stream stays in sync. It exists for the fault-injection layer
// (internal/chaos via transport's Faulter): end-to-end tests exercise the
// real detection path instead of simulating it.
func WriteCorrupt(w io.Writer, m *Message) error {
	return writeFrame(w, m, 1)
}

// encodeBody returns the body Write emits for m.
func encodeBody(m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.bulk() {
		if err := binaryError(m); err != nil {
			return nil, err
		}
		return appendBinary(make([]byte, 0, binaryBodyLen(m)), m), nil
	}
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("protocol: marshal %s: %w", m.kind(), err)
	}
	if len(body) > MaxMessageSize {
		return nil, fmt.Errorf("protocol: %s message of %d bytes exceeds limit", m.kind(), len(body))
	}
	return body, nil
}

// writeFrame encodes, frames, and writes m; crcFlip is XORed into the
// checksum (0 for an honest frame).
func writeFrame(w io.Writer, m *Message, crcFlip uint32) error {
	body, err := encodeBody(m)
	if err != nil {
		return err
	}
	var header [headerLen]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(header[4:], crc32.ChecksumIEEE(body)^crcFlip)
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("protocol: write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("protocol: write body: %w", err)
	}
	return nil
}

// Read reads and validates one framed message. A checksum mismatch
// returns an error wrapping ErrCorruptFrame with the frame fully
// consumed, so the caller may continue reading the stream; a body that
// fails to parse, including a bulk message with a JSON body, is likewise
// a frame-local error.
func Read(r io.Reader) (*Message, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	size := binary.BigEndian.Uint32(header[:4])
	sum := binary.BigEndian.Uint32(header[4:])
	if size > MaxMessageSize {
		return nil, fmt.Errorf("protocol: incoming frame of %d bytes exceeds limit", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("protocol: read body: %w", err)
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: %d-byte frame, checksum %08x want %08x", ErrCorruptFrame, size, got, sum)
	}
	var m *Message
	if len(body) > 0 && body[0] == binaryMagic {
		parsed, err := parseBinary(body)
		if err != nil {
			return nil, err
		}
		m = parsed
	} else {
		m = &Message{}
		if err := json.Unmarshal(body, m); err != nil {
			return nil, fmt.Errorf("protocol: unmarshal: %w", err)
		}
		if m.bulk() {
			return nil, fmt.Errorf("protocol: %s message with a JSON body; bulk messages are binary", m.kind())
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
