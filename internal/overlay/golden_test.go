package overlay

// Golden overlay bodies: the JSON of every overlay control body, one file
// per message under testdata/golden. Each golden is checked both ways:
// decoding it gives the expected value (reflect.DeepEqual), and marshalling
// that value gives its bytes exactly — so renaming a JSON tag, changing a
// field's type or adding a field fails here even though a round trip would
// still pass. A join and its reply share joinBody (only the reply carries
// Leaves), and a ping and its pong share gossipBody.
//
//	go test ./internal/overlay -run TestGoldenBodies -update
//
// rewrites them from the current bodies.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sci/internal/guid"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current bodies")

const goldenDir = "testdata/golden"

// gid is a deterministic GUID: the kind in the top byte, n in the last two.
func gid(kind guid.Kind, n uint16) guid.GUID {
	var g guid.GUID
	g[0] = byte(kind)
	g[14], g[15] = byte(n>>8), byte(n)
	return g
}

// goldenBodies names one value of every body shape; each name is its
// golden's file name.
func goldenBodies() []struct {
	name string
	body any
} {
	a, b, c := gid(guid.KindServer, 1), gid(guid.KindServer, 2), gid(guid.KindServer, 3)
	payload := json.RawMessage(`{"query_id":"q1"}`)
	return []struct {
		name string
		body any
	}{
		{"join", joinBody{Joiner: a, Nodes: []guid.GUID{b, c}}},
		{"join_reply", joinBody{Joiner: a, Nodes: []guid.GUID{b, c}, Leaves: []guid.GUID{b}}},
		{"ping", gossipBody{Nodes: []guid.GUID{b, c}}},
		{"pong", gossipBody{Nodes: []guid.GUID{a}}},
		{"route", routeBody{Target: c, Origin: a, AppKind: "scinet.query", Payload: payload, Hops: 2}},
		{"tree_route", treeRouteBody{Target: c, Origin: a, AppKind: "scinet.query", Payload: payload, Hops: 1}},
	}
}

func TestGoldenBodies(t *testing.T) {
	var names []string
	for _, c := range goldenBodies() {
		names = append(names, c.name)
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(goldenDir, c.name+".json")
			got, err := json.Marshal(c.body)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("marshalling gives\n%s\nthe golden holds\n%s", got, want)
			}
			decoded := reflect.New(reflect.TypeOf(c.body))
			if err := json.Unmarshal(want, decoded.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(decoded.Elem().Interface(), c.body) {
				t.Fatalf("decoding gives %+v, want %+v", decoded.Elem().Interface(), c.body)
			}
		})
	}
	// Every golden on disk names a shape: a body that goes takes its golden.
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".json"); !slices.Contains(names, name) {
			t.Errorf("golden %s names no body shape", f)
		}
	}
}
