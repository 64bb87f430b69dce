package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"testing"
)

// refEvent mirrors Event's wire shape with the kind as a plain string, so
// the reference encoding below goes through encoding/json alone — not
// through Kind.MarshalJSON, which shares appendKind with the encoder.
type refEvent struct {
	Cycle uint64   `json:"c"`
	Kind  string   `json:"k"`
	Node  int      `json:"n"`
	Peer  int      `json:"p"`
	TID   uint64   `json:"tid,omitempty"`
	TID2  uint64   `json:"tid2,omitempty"`
	Addr  uint64   `json:"addr,omitempty"`
	Words uint64   `json:"words,omitempty"`
	SR    uint64   `json:"sr,omitempty"`
	SM    uint64   `json:"sm,omitempty"`
	Arg   int64    `json:"arg,omitempty"`
	Data  []uint64 `json:"data,omitempty"`
	Set   string   `json:"set,omitempty"`
}

func refMarshal(t testing.TB, e Event) []byte {
	t.Helper()
	b, err := json.Marshal(refEvent{e.Cycle, e.Kind.String(), e.Node, e.Peer, e.TID, e.TID2,
		e.Addr, e.Words, e.SR, e.SM, e.Arg, e.Data, e.Set})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkEncoding(t testing.TB, e Event) {
	t.Helper()
	got := appendEvent(nil, &e)
	if want := refMarshal(t, e); !bytes.Equal(got, want) {
		t.Fatalf("appendEvent(%#v)\n got %s\nwant %s", e, got, want)
	}
	// The struct's own Marshal path (Kind.MarshalJSON) agrees too.
	if direct, err := json.Marshal(e); err != nil || !bytes.Equal(got, direct) {
		t.Fatalf("json.Marshal(%#v) = %s, %v; appendEvent = %s", e, direct, err, got)
	}
}

// setEdges are Set strings on either side of the fast path: plain ASCII,
// every character encoding/json escapes (quotes, backslash, control bytes,
// the HTML set, U+2028/2029), DEL, multi-byte UTF-8 and invalid UTF-8.
var setEdges = []string{
	"", "[0 3 5]", "[]", " ", "~", "\x7f", `"`, `\`, `a"b\c`, "<", ">", "&", "<p>&amp;</p>",
	"\n", "\t", "\r", "\x00", "\x1f", " ", " ", "é", "日本", "\xff", "\xc3", "ok\xed\xa0\x80",
}

var uintEdges = []uint64{0, 1, 9, 10, 255, 1 << 32, math.MaxInt64, math.MaxUint64 - 1, math.MaxUint64}

var intEdges = []int64{0, 1, -1, 10, -10, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

func randEvent(r *rand.Rand) Event {
	u := func() uint64 {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return uintEdges[r.Intn(len(uintEdges))]
		case 2:
			return uint64(r.Intn(1000))
		}
		return r.Uint64()
	}
	i := func() int64 {
		switch r.Intn(3) {
		case 0:
			return intEdges[r.Intn(len(intEdges))]
		case 1:
			return int64(r.Intn(200) - 100)
		}
		return int64(r.Uint64())
	}
	e := Event{
		Cycle: u(), Kind: Kind(r.Intn(256)), Node: int(i()), Peer: int(i()),
		TID: u(), TID2: u(), Addr: u(), Words: u(), SR: u(), SM: u(), Arg: i(),
		Set: setEdges[r.Intn(len(setEdges))],
	}
	if r.Intn(4) != 0 {
		e.Kind = Kind(r.Intn(NumKinds)) // mostly in range
	}
	switch r.Intn(4) {
	case 0: // nil Data
	case 1:
		e.Data = []uint64{}
	default:
		e.Data = make([]uint64, r.Intn(10))
		for k := range e.Data {
			e.Data[k] = u()
		}
	}
	if r.Intn(8) == 0 {
		b := make([]byte, r.Intn(12))
		for k := range b {
			b[k] = byte(r.Intn(256))
		}
		e.Set = string(b)
	}
	return e
}

// The hand-rolled encoder must produce exactly encoding/json's bytes: every
// field, omitempty rule, number range, kind (in range or not) and Set
// escape, on a seeded stream of random events.
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	r := rand.New(rand.NewSource(20070213))
	for i := 0; i < n; i++ {
		checkEncoding(t, randEvent(r))
	}
	for k := 0; k < 256; k++ {
		b, err := Kind(k).MarshalJSON()
		want, _ := json.Marshal(Kind(k).String())
		if err != nil || !bytes.Equal(b, want) {
			t.Fatalf("Kind(%d).MarshalJSON = %s, %v; want %s", k, b, err, want)
		}
	}
	for _, s := range setEdges {
		checkEncoding(t, Event{Kind: KLoad, Set: s})
	}
	checkEncoding(t, Event{Kind: KLoad, Data: []uint64{0, math.MaxUint64}})
	checkEncoding(t, Event{Cycle: math.MaxUint64, Kind: Kind(255), Node: math.MinInt, Peer: math.MaxInt,
		TID: math.MaxUint64, Arg: math.MinInt64})
}

// FuzzAppendEvent drives the encoder with arbitrary field values; the seed
// corpus is the property test's edge list.
func FuzzAppendEvent(f *testing.F) {
	for i, s := range setEdges {
		u, n := uintEdges[i%len(uintEdges)], intEdges[i%len(intEdges)]
		f.Add(u, uint8(i*11), int(n), -int(n), u, ^u, u, u, u, u, n, []byte{byte(i), 0xff}, i%3 == 0, s)
	}
	f.Add(uint64(0), uint8(numKinds), 0, -1, uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0),
		int64(0), []byte(nil), true, "")
	f.Fuzz(func(t *testing.T, cycle uint64, kind uint8, node, peer int, tid, tid2, addr, words, sr, sm uint64,
		arg int64, data []byte, dataNil bool, set string) {
		e := Event{Cycle: cycle, Kind: Kind(kind), Node: node, Peer: peer, TID: tid, TID2: tid2,
			Addr: addr, Words: words, SR: sr, SM: sm, Arg: arg, Set: set}
		if !dataNil {
			e.Data = make([]uint64, 0, len(data)/8)
			for ; len(data) >= 8; data = data[8:] {
				var w uint64
				for _, b := range data[:8] {
					w = w<<8 | uint64(b)
				}
				e.Data = append(e.Data, w)
			}
		}
		checkEncoding(t, e)
	})
}

// The stream's event path must not allocate: the line buffer is reused and
// the sink is handed it directly.
func BenchmarkJSONLStreamEvent(b *testing.B) {
	s := NewJSONLStream(io.Discard)
	e := Event{
		Cycle: 1_234_567, Kind: KLoad, Node: 3, Peer: 12, TID: 417, Addr: 0x3f40, Words: 0xff,
		Arg: 12, Data: []uint64{1, 22, 333, 4444, 55555, 666666, 7777777, 88888888}, Set: "[3 7 12]",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Cycle++
		s.Event(e)
	}
	if s.Err() != nil {
		b.Fatal(s.Err())
	}
}
