package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"strings"
	"testing"
)

// frame wraps a raw body in a valid length+CRC frame.
func frame(body []byte) []byte {
	f := make([]byte, headerLen, headerLen+len(body))
	binary.BigEndian.PutUint32(f[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(body))
	return append(f, body...)
}

const (
	testTrace = "00000000deadbeef"
	testSpan  = "00000000cafef00d"
)

// TestCtxBinaryRoundTrip: context-bearing bulk messages ride the context
// binary kinds and round-trip exactly.
func TestCtxBinaryRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Broadcast: &Broadcast{Round: 3, Params: []float64{1.5, -2.25},
			TraceID: testTrace, SpanID: testSpan}},
		{Upload: &Upload{Round: 3, VehicleID: 7, Values: []float64{9, 8},
			TraceID: testTrace, SpanID: testSpan}},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()[headerLen:]
		if body[0] != binaryMagic {
			t.Fatalf("%s with ctx should encode binary, got body %q", m.Kind(), body)
		}
		if k := body[1]; k != binaryKindBroadcastCtx && k != binaryKindUploadCtx {
			t.Fatalf("%s with ctx used kind %d, want a ctx kind", m.Kind(), k)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		j1, _ := json.Marshal(m)
		j2, _ := json.Marshal(got)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("ctx round trip changed the message:\n sent: %s\n got:  %s", j1, j2)
		}
	}
}

// TestCtxAbsentKeepsV3WireBytes: with tracing off no context fields are
// set, so bulk frames use the context-free kinds 1/2 — exactly 16 bytes
// shorter than the same message with context — and control frames carry
// no trace keys: propagation can never tax an untraced session.
func TestCtxAbsentKeepsV3WireBytes(t *testing.T) {
	bulk := []*Message{
		{Broadcast: &Broadcast{Round: 2, Params: []float64{0.5, 1, 2}}},
		{Upload: &Upload{Round: 2, VehicleID: 4, Values: []float64{7}}},
	}
	for _, m := range bulk {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if k := buf.Bytes()[headerLen+1]; k != binaryKindBroadcast && k != binaryKindUpload {
			t.Fatalf("ctx-free %s used kind %d", m.Kind(), k)
		}
		var withCtx Message
		if m.Broadcast != nil {
			b := *m.Broadcast
			b.TraceID, b.SpanID = testTrace, testSpan
			withCtx.Broadcast = &b
		} else {
			u := *m.Upload
			u.TraceID, u.SpanID = testTrace, testSpan
			withCtx.Upload = &u
		}
		if d := EncodedSize(&withCtx) - EncodedSize(m); d != 16 {
			t.Fatalf("context costs %s %d bytes, want 16", m.Kind(), d)
		}
	}
	for _, m := range []*Message{
		{Hello: &Hello{Version: Version, VehicleID: 4}},
		{Setup: &Setup{InputSize: 3, SchemeVehicles: 4, SchemeSeed: 9, WireVersion: Version}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), "trace_id") {
			t.Fatalf("untraced %s carries a trace key: %s", m.Kind(), buf.Bytes()[headerLen:])
		}
	}
}

// TestCtxNonCanonicalRefused: only canonical 16-digit lowercase hex IDs
// fit the fixed-width binary layout, and bulk messages have no other
// encoding, so Write refuses anything else instead of rewriting it.
func TestCtxNonCanonicalRefused(t *testing.T) {
	for _, ctx := range []struct{ trace, span string }{
		{"abc", "def"},                         // short
		{strings.ToUpper(testTrace), testSpan}, // uppercase
		{testTrace, ""},                        // partial
		{"0000000000000000", testSpan},         // zero trace
	} {
		m := &Message{Broadcast: &Broadcast{Round: 1, Params: []float64{1},
			TraceID: ctx.trace, SpanID: ctx.span}}
		var buf bytes.Buffer
		if err := Write(&buf, m); err == nil {
			t.Fatalf("non-canonical ctx %+v was written", ctx)
		}
		if buf.Len() != 0 {
			t.Fatalf("refused ctx %+v left %d bytes on the writer", ctx, buf.Len())
		}
	}
}

// TestCtxBinaryRejectsZeroIDs: a crafted ctx frame with a zero trace or
// span ID is rejected frame-locally — partial context never decodes, so
// decode∘encode stays the identity on accepted frames.
func TestCtxBinaryRejectsZeroIDs(t *testing.T) {
	m := &Message{Broadcast: &Broadcast{Round: 1, Params: []float64{1},
		TraceID: testTrace, SpanID: testSpan}}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Zero out the span ID (bytes 10..18 of the body) and re-checksum.
	body := append([]byte(nil), buf.Bytes()[headerLen:]...)
	for i := 10; i < 18; i++ {
		body[i] = 0
	}
	reframed := frame(body)
	if _, err := Read(bytes.NewReader(reframed)); err == nil {
		t.Fatal("ctx frame with zero span ID must be rejected")
	}
}

// TestTraceContextAccessor covers the per-kind context extraction the
// transport layer uses for telemetry.
func TestTraceContextAccessor(t *testing.T) {
	cases := []struct {
		m           *Message
		trace, span string
	}{
		{&Message{Hello: &Hello{VehicleID: 1, TraceID: testTrace}}, testTrace, ""},
		{&Message{Setup: &Setup{TraceID: testTrace}}, testTrace, ""},
		{&Message{Broadcast: &Broadcast{TraceID: testTrace, SpanID: testSpan}}, testTrace, testSpan},
		{&Message{Upload: &Upload{TraceID: testTrace, SpanID: testSpan}}, testTrace, testSpan},
		{&Message{Finished: &Finished{Rounds: 1}}, "", ""},
	}
	for _, c := range cases {
		trace, span := c.m.TraceContext()
		if trace != c.trace || span != c.span {
			t.Fatalf("%s: TraceContext = (%q, %q), want (%q, %q)", c.m.Kind(), trace, span, c.trace, c.span)
		}
	}
}
