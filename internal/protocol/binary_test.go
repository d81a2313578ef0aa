package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := make([]float64, 257)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	params[0] = math.Inf(-1)
	params[1] = math.Copysign(0, -1)
	for _, m := range []*Message{
		{Broadcast: &Broadcast{Round: 3, Params: params}},
		{Upload: &Upload{Round: 9, VehicleID: 41, Values: params[:5]}},
		{Upload: &Upload{Round: 1, VehicleID: 0}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[headerLen]; got != binaryMagic {
			t.Fatalf("bulk frame body starts with %#x, want binary magic", got)
		}
		if want := EncodedSize(m) + 4; buf.Len() != want {
			// EncodedSize counts 4 length bytes but not the CRC.
			t.Fatalf("frame is %d bytes, EncodedSize promises %d", buf.Len(), want)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("binary round trip changed the message: %+v -> %+v", m, got)
		}
	}
}

func TestBinaryPreservesNaNBits(t *testing.T) {
	payload := math.Float64frombits(0x7ff8_dead_beef_0001) // NaN with payload bits
	m := &Message{Upload: &Upload{Round: 1, VehicleID: 2, Values: []float64{payload}}}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(got.Upload.Values[0]); bits != 0x7ff8_dead_beef_0001 {
		t.Fatalf("NaN bits changed: %016x", bits)
	}
	// JSON cannot carry this value at all — the binary encoding is
	// strictly more faithful, not differently lossy.
	if _, err := json.Marshal(m); err == nil {
		t.Fatal("JSON encoding of NaN unexpectedly succeeded")
	}
}

// TestWriteRefusesUnencodableBulk: a bulk message whose fields do not fit
// the binary layout is refused — nothing reaches the writer and
// EncodedSize reports 0 — while control messages always travel as JSON.
func TestWriteRefusesUnencodableBulk(t *testing.T) {
	for _, m := range []*Message{
		{Broadcast: &Broadcast{Round: -1, Params: []float64{1}}},         // round outside u32
		{Upload: &Upload{Round: 1, VehicleID: -5, Values: []float64{1}}}, // id outside u32
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err == nil {
			t.Fatalf("%s outside the binary layout was written", m.Kind())
		}
		if buf.Len() != 0 {
			t.Fatalf("refused %s left %d bytes on the writer", m.Kind(), buf.Len())
		}
		if n := EncodedSize(m); n != 0 {
			t.Fatalf("EncodedSize of a refused %s = %d, want 0", m.Kind(), n)
		}
	}
	for _, m := range []*Message{
		{Hello: &Hello{Version: Version, VehicleID: 1}},
		{Finished: &Finished{Rounds: 2}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if buf.Bytes()[headerLen] != '{' {
			t.Fatalf("%s not encoded as JSON: % x", m.Kind(), buf.Bytes())
		}
		got, err := Read(&buf)
		if err != nil || !reflect.DeepEqual(m, got) {
			t.Fatalf("control round trip = %+v, %v", got, err)
		}
	}
}

// TestReadRejectsJSONBulk: a bulk message with a JSON body is a
// frame-local error — the frame is consumed and the stream stays in sync.
func TestReadRejectsJSONBulk(t *testing.T) {
	for _, m := range []*Message{
		{Broadcast: &Broadcast{Round: 1, Params: []float64{1, 2, 3}}},
		{Upload: &Upload{Round: 1, VehicleID: 2, Values: []float64{4}}},
	} {
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		stream := frame(body)
		var tail bytes.Buffer
		if err := Write(&tail, &Message{Finished: &Finished{Rounds: 4}}); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(append(stream, tail.Bytes()...))
		if _, err := Read(r); err == nil || !strings.Contains(err.Error(), "JSON body") {
			t.Fatalf("JSON-bodied %s: err=%v, want a JSON-body rejection", m.Kind(), err)
		}
		got, err := Read(r)
		if err != nil {
			t.Fatalf("stream out of sync after rejected %s: %v", m.Kind(), err)
		}
		if got.Finished == nil || got.Finished.Rounds != 4 {
			t.Fatalf("wrong trailing message: %+v", got)
		}
	}
}

func TestParseBinaryRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"bare magic":       {binaryMagic},
		"unknown kind":     {binaryMagic, 0x7f, 0, 0, 0, 0},
		"truncated header": {binaryMagic, binaryKindBroadcast, 1, 0},
		"count mismatch":   {binaryMagic, binaryKindBroadcast, 1, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		"upload short":     {binaryMagic, binaryKindUpload, 1, 0, 0, 0, 2, 0, 0, 0},
		"excess payload":   append([]byte{binaryMagic, binaryKindUpload, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 16)...),
	}
	for name, body := range cases {
		if _, err := parseBinary(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBinaryWireBytesRatio pins the bandwidth win that motivates the v3
// encoding: at 1k parameters the binary Broadcast frame must be at least
// 2.2x smaller than its JSON form. (A >= 3x cut is information-
// theoretically out of reach: the binary payload is already at the
// 8-byte-per-float floor, while JSON spends ~20 bytes on a decimal
// float64 — see DESIGN.md §13.)
func TestBinaryWireBytesRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	params := make([]float64, 1000)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	m := &Message{Broadcast: &Broadcast{Round: 1, Params: params}}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	jsonBytes := 4 + len(body)
	binBytes := EncodedSize(m)
	if binBytes >= jsonBytes {
		t.Fatalf("binary (%d B) not smaller than JSON (%d B)", binBytes, jsonBytes)
	}
	if ratio := float64(jsonBytes) / float64(binBytes); ratio < 2.2 {
		t.Errorf("wire ratio %.2fx (json %d B / binary %d B), want >= 2.2x", ratio, jsonBytes, binBytes)
	}
}

// BenchmarkWireCodec measures encode+decode ns and bytes for the bulk
// Broadcast message at realistic parameter counts.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 1000} {
		params := make([]float64, n)
		for i := range params {
			params[i] = rng.NormFloat64()
		}
		m := &Message{Broadcast: &Broadcast{Round: 5, Params: params}}
		b.Run(fmt.Sprintf("params=%d/enc=binary", n), func(b *testing.B) {
			// One untimed round trip pays the one-time costs (CRC table
			// set-up, buffer growth) outside the measured loop.
			var buf bytes.Buffer
			if err := Write(&buf, m); err != nil {
				b.Fatal(err)
			}
			if _, err := Read(&buf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := Write(&buf, m); err != nil {
					b.Fatal(err)
				}
				if _, err := Read(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(EncodedSize(m)))
		})
	}
}
