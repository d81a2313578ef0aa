package protocol

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// encodeSeed frames m for the corpus; the fuzz seeds must be valid
// frames so the mutator starts from the interesting region.
func encodeSeed(f *testing.F, m *Message) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// jsonSeed frames the JSON form of m, which Write never emits for the
// bulk messages: the decoder must reject those frames cleanly.
func jsonSeed(f *testing.F, m *Message) []byte {
	f.Helper()
	body, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	return frame(body)
}

// FuzzFrameCodec feeds arbitrary bytes to the frame decoder. Read must
// never panic — a malicious or corrupted peer controls this input — and
// any frame it accepts must re-encode and re-decode to the same message
// (decode∘encode is the identity on accepted frames).
func FuzzFrameCodec(f *testing.F) {
	variants := []*Message{
		{Hello: &Hello{Version: Version, VehicleID: 3}},
		{Setup: &Setup{InputSize: 4, LocalEpochs: 2, LocalRate: 0.05,
			RefX: [][]float64{{1, 2}}, SchemeVehicles: 6, SchemeBatches: 2,
			SchemeDegree: 1, SchemeSeed: 99}},
		{Broadcast: &Broadcast{Round: 1, Params: []float64{0.5, -0.25}}},
		{Upload: &Upload{Round: 1, VehicleID: 2, Values: []float64{1, 2, 3}}},
		{Finished: &Finished{Rounds: 5}},
		{Error: &Error{Reason: "boom"}},
	}
	for _, m := range variants {
		f.Add(encodeSeed(f, m))
	}
	// JSON-bodied bulk frames, which Read must reject; the fuzzer mutates
	// from here into the boundary between the two body encodings.
	f.Add(jsonSeed(f, variants[2]))
	f.Add(jsonSeed(f, variants[3]))
	// Binary frames carrying the float payloads JSON cannot carry at all
	// (NaN bit patterns, infinities), and an empty upload.
	f.Add(encodeSeed(f, &Message{Broadcast: &Broadcast{Round: 2,
		Params: []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1)}}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 7, VehicleID: 1}}))
	// Context-bearing binary frames (kinds 3/4), including a NaN payload
	// so the ctx kinds' bit-exact float path is exercised.
	f.Add(encodeSeed(f, &Message{Broadcast: &Broadcast{Round: 2,
		Params:  []float64{math.NaN(), 1.5},
		TraceID: "00000000deadbeef", SpanID: "00000000cafef00d"}}))
	f.Add(encodeSeed(f, &Message{Upload: &Upload{Round: 2, VehicleID: 3,
		Values:  []float64{-0.5},
		TraceID: "00000000deadbeef", SpanID: "00000000cafef00d"}}))
	// A JSON upload with non-canonical context: no binary form exists.
	f.Add(jsonSeed(f, &Message{Upload: &Upload{Round: 1, VehicleID: 1,
		Values: []float64{2}, TraceID: "ABC", SpanID: "def"}}))
	// Fleet frames: a session-routed hello and an admission answer.
	f.Add(encodeSeed(f, &Message{Hello: &Hello{Version: Version, VehicleID: 1, SessionID: "s1"}}))
	f.Add(encodeSeed(f, &Message{Admission: &Admission{Queued: true, Reason: "budget"}}))
	// The retired relay gather frame in both of its old encodings: JSON
	// (no known variant) and binary kind 5 (unknown kind).
	f.Add(frame([]byte(`{"gather":{"uploads":[{"round":1,"vehicle_id":0,"values":[2]}]}}`)))
	f.Add(frame([]byte{0xB3, 0x05, 1, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0}))
	// Malformed shapes the decoder must reject without panicking.
	corrupt := encodeSeed(f, variants[0])
	corrupt[len(corrupt)-1] ^= 0xff // body flip: CRC mismatch
	f.Add(corrupt)
	f.Add([]byte{})                                       // empty stream
	f.Add([]byte{0, 0, 0})                                // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})     // oversized length
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, '{', '}'})       // bad CRC over "{}"
	f.Add(append(encodeSeed(f, variants[4]), 0, 0, 0, 1)) // trailing partial frame
	// Malformed binary bodies (CRC-valid so they reach the parser):
	// bare magic, unknown kind, truncated headers, and a count that
	// disagrees with the payload length.
	for _, body := range [][]byte{
		{0xB3},
		{0xB3, 0x7f},
		{0xB3, 0x01, 1, 0},
		{0xB3, 0x02, 1, 0, 0, 0, 2, 0, 0, 0},
		{0xB3, 0x01, 1, 0, 0, 0, 9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		// ctx kinds: truncated ctx prefix, and a zero span ID (partial
		// context must be rejected frame-locally).
		{0xB3, 0x03, 1, 2, 3, 4},
		{0xB3, 0x04, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		// the retired gather kind 5: bare header, zero count,
		// over-counted entries, and a truncated inner upload.
		{0xB3, 0x05},
		{0xB3, 0x05, 0, 0, 0, 0},
		{0xB3, 0x05, 9, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
		{0xB3, 0x05, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1, 2},
	} {
		f.Add(frame(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics and hangs are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read returned an invalid message: %v", err)
		}
		// Round trip through the encoder and compare the re-encodings
		// byte for byte: unlike a JSON comparison this stays meaningful
		// for payloads JSON cannot marshal (NaN), which the binary path
		// round-trips bit-exactly.
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		m2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, m2); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round trip changed the message:\n first: %x\nsecond: %x", buf.Bytes(), buf2.Bytes())
		}
		j1, _ := json.Marshal(m)
		j2, _ := json.Marshal(m2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("round trip changed the message:\n first: %s\nsecond: %s", j1, j2)
		}
	})
}
