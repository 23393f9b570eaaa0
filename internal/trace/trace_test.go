package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pervasive/internal/clock"
)

func TestAppendAndQuery(t *testing.T) {
	tr := New(3)
	tr.Append(Record{Proc: 0, Type: Sense, At: 10, Attr: "x", Value: 1})
	tr.Append(Record{Proc: 1, Type: Send, At: 12, Peer: 0})
	tr.Append(Record{Proc: 0, Type: Receive, At: 15, Peer: 1})
	tr.Append(Record{Proc: 2, Type: Actuate, At: 20})
	tr.Append(Record{Proc: 2, Type: Compute, At: 21})

	if tr.Len() != 5 {
		t.Fatalf("len %d", tr.Len())
	}
	p0 := tr.ByProcess(0)
	if len(p0) != 2 || p0[0].Type != Sense || p0[1].Type != Receive {
		t.Fatalf("by process %v", p0)
	}
	counts := tr.Counts()
	for ty, want := range map[Type]int{Sense: 1, Send: 1, Receive: 1, Actuate: 1, Compute: 1} {
		if counts[ty] != want {
			t.Fatalf("counts %v", counts)
		}
	}
}

func TestAppendValidation(t *testing.T) {
	tr := New(2)
	for _, r := range []Record{
		{Proc: 2, Type: Sense},
		{Proc: -1, Type: Sense},
		{Proc: 0, Type: "z"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%+v) did not panic", r)
				}
			}()
			tr.Append(r)
		}()
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New(2)
	tr.Append(Record{Proc: 0, Type: Sense, At: 5, Attr: "temp", Value: 31.5,
		Lamport: 3, Vector: clock.Vector{3, 1}, Note: "hot"})
	tr.Append(Record{Proc: 1, Type: Receive, At: 9, Peer: 0})

	var buf bytes.Buffer
	if err := tr.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != 2 || len(back.Records) != 2 {
		t.Fatalf("decoded %+v", back)
	}
	if !reflect.DeepEqual(back.Records[0], tr.Records[0]) {
		t.Fatalf("record mismatch:\n%+v\n%+v", back.Records[0], tr.Records[0])
	}
}

func TestDecodeValidation(t *testing.T) {
	cases := []string{
		`{"n":0,"records":[]}`,
		`{"n":2,"records":[{"proc":5,"type":"n","at":1}]}`,
		`{"n":2,"records":[{"proc":0,"type":"bogus","at":1}]}`,
		`not json`,
	}
	for _, src := range cases {
		if _, err := DecodeJSON(strings.NewReader(src)); err == nil {
			t.Errorf("DecodeJSON(%q) succeeded", src)
		}
	}
}

func TestTypeValid(t *testing.T) {
	for _, ty := range []Type{Compute, Sense, Actuate, Send, Receive} {
		if !ty.Valid() {
			t.Fatalf("%q invalid", ty)
		}
	}
	if Type("q").Valid() {
		t.Fatal("bogus type valid")
	}
}
