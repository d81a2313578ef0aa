package protocol

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestGatherBinaryRejectsMalformed: binary kind 5, the retired relay
// gather layout, is no longer a message kind. A well-formed body of the
// old layout is a frame-local error like any unknown kind — never a
// panic or a misparse — and the stream stays in sync behind it.
func TestGatherBinaryRejectsMalformed(t *testing.T) {
	// count u32 = 1, then round u32, vehicle u32, n u32 = 1, one float.
	body := []byte{binaryMagic, 5, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}
	var tail bytes.Buffer
	if err := Write(&tail, &Message{Finished: &Finished{Rounds: 1}}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(append(frame(body), tail.Bytes()...))
	if _, err := Read(r); err == nil || !strings.Contains(err.Error(), "unknown binary message kind 5") {
		t.Fatalf("gather body: err = %v, want an unknown-kind rejection", err)
	}
	if m, err := Read(r); err != nil || m.Finished == nil {
		t.Fatalf("stream out of sync after the rejected frame: %+v, %v", m, err)
	}
	// Its JSON form names no known variant, so it fails validation.
	legacy := []byte(`{"gather":{"uploads":[{"round":1,"vehicle_id":2,"values":[1]}]}}`)
	if _, err := Read(bytes.NewReader(frame(legacy))); err == nil {
		t.Fatal("JSON gather frame accepted")
	}
}

// TestAdmissionRoundTrip: admission answers are plain JSON frames and
// survive the codec in both queue and reject shapes.
func TestAdmissionRoundTrip(t *testing.T) {
	for _, want := range []*Message{
		{Admission: &Admission{Queued: true, Reason: "fleet at connection budget"}},
		{Admission: &Admission{Reason: "unknown session", Retry: false}},
		{Admission: &Admission{Reason: "budget exhausted", Retry: true}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip = %+v, want %+v", got.Admission, want.Admission)
		}
	}
}

// TestHelloSessionIDWireCompat: the session ID rides Hello as an
// optional key — absent, it is not serialized at all, so a single-session
// hello carries no fleet bytes.
func TestHelloSessionIDWireCompat(t *testing.T) {
	plain := &Message{Hello: &Hello{Version: Version, VehicleID: 2}}
	body, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "session_id") {
		t.Fatalf("empty session ID serialized: %s", body)
	}
	var buf bytes.Buffer
	routed := &Message{Hello: &Hello{Version: Version, VehicleID: 2, SessionID: "s1"}}
	if err := Write(&buf, routed); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hello.SessionID != "s1" {
		t.Fatalf("session ID = %q, want s1", got.Hello.SessionID)
	}
}
