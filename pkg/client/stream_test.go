package client

import (
	"reflect"
	"strings"
	"testing"
)

// suiteStreamCases are streamed POST /v1/suite bodies: the decode
// outcome and the collected run keys.
var suiteStreamCases = []struct {
	name string
	body string
	keys []string // nil when the decode must fail
}{
	{"two runs", `{"type":"run","run":{"key":"a"},"done":1,"total":2}
{"type":"run","run":{"key":"b"},"done":2,"total":2}
{"type":"result","total":2}
`, []string{"a", "b"}},
	{"blank lines and CRLF", "\r\n  {\"type\":\"run\",\"run\":{\"key\":\"a\"}}\r\n\n{\"type\":\"result\",\"total\":1}", []string{"a"}},
	{"run without a body", `{"type":"run","done":1}
{"type":"result","total":1}`, []string{}},
	{"unknown event type", `{"type":"progress"}
{"type":"result"}`, []string{}},
	{"error event", `{"type":"run","run":{"key":"a"}}
{"type":"error","error":"boom"}
{"type":"result","total":1}`, nil},
	{"truncated", `{"type":"run","run":{"key":"a"}}
{"type":"res`, nil},
	{"no result", `{"type":"run","run":{"key":"a"}}`, nil},
	{"empty", ``, nil},
	{"not json", `{bad`, nil},
}

func TestDecodeSuiteStream(t *testing.T) {
	for _, c := range suiteStreamCases {
		t.Run(c.name, func(t *testing.T) {
			events := 0
			out, err := decodeSuiteStream(strings.NewReader(c.body), func(SuiteEvent) { events++ })
			if c.keys == nil {
				if err == nil {
					t.Fatalf("decode succeeded with %+v, want an error", out)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			keys := []string{}
			for _, r := range out.Runs {
				keys = append(keys, r.Key)
			}
			if !reflect.DeepEqual(keys, c.keys) {
				t.Errorf("run keys %q, want %q", keys, c.keys)
			}
			if events == 0 {
				t.Error("onEvent never called")
			}
		})
	}
}

// FuzzSuiteStream feeds arbitrary bodies to the suite stream decoder:
// it never panics, and a successful decode returns exactly the runs of
// the "run" events whose Run is non-nil, in stream order.
func FuzzSuiteStream(f *testing.F) {
	for _, c := range suiteStreamCases {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var want []RunResponse
		out, err := decodeSuiteStream(strings.NewReader(body), func(ev SuiteEvent) {
			if ev.Type == "run" && ev.Run != nil {
				want = append(want, *ev.Run)
			}
		})
		if err != nil {
			return
		}
		if !reflect.DeepEqual(out.Runs, want) {
			t.Fatalf("decoded %d runs, stream carried %d: %+v vs %+v", len(out.Runs), len(want), out.Runs, want)
		}
	})
}
