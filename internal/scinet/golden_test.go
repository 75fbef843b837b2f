package scinet

// Golden SCINET bodies: the JSON of every fabric-to-fabric control body, one
// file per shape under testdata/golden. Each golden is checked both ways:
// decoding it gives the expected value (reflect.DeepEqual), and marshalling
// that value gives its bytes exactly — so renaming a JSON tag, changing a
// field's type or adding a field fails here even though a round trip would
// still pass. scinet.leave has no body, and scinet.event_batch travels in
// the batch header (internal/wire's goldens cover it).
//
//	go test ./internal/scinet -run TestGoldenBodies -update
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

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/wire"
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
	digest := func(gen uint64, types ...string) []byte {
		d := wire.NewDigest(gen)
		for _, t := range types {
			d.AddType(t)
		}
		return wire.EncodeDigest(d)
	}
	qid := gid(guid.KindQuery, 1)
	return []struct {
		name string
		body any
	}{
		{"coverage", coverageMsg{Coverage: "campus/lt/l10", Name: "l10"}},
		{"coverage_echo", coverageMsg{Coverage: "campus/lt/lobby", Name: "lobby", Echo: true}},
		{"query", queryMsg{QueryID: qid, XML: []byte(`<query id="1"/>`)}},
		{"query_result", queryResultMsg{QueryID: qid, Configuration: gid(guid.KindConfiguration, 2), Provider: gid(guid.KindDevice, 3)}},
		{"query_result_deferred", queryResultMsg{QueryID: qid, Deferred: true}},
		{"query_result_error", queryResultMsg{QueryID: qid, Error: "no provider"}},
		{"cancel", cancelMsg{QueryID: qid}},
		{"event_batch_ack", eventBatchAckMsg{Events: 64, Dropped: 3,
			DownstreamBy: map[guid.GUID]uint64{gid(guid.KindServer, 4): 7, gid(guid.KindServer, 5): 0}, QueueFree: -1}},
		{"query_ack", eventBatchAckMsg{QueryAck: true, Events: 12, QueueFree: -1}},
		{"interest", interestMsg{Owner: gid(guid.KindServer, 6), Gen: 7, Filters: []event.Filter{
			{Type: ctxtype.TemperatureCelsius},
			{Type: ctxtype.LocationPosition, Source: gid(guid.KindDevice, 8), Range: gid(guid.KindRange, 9), MinQuality: 0.5},
		}}},
		{"interest_empty", interestMsg{Owner: gid(guid.KindServer, 6), Gen: 8}},
		{"digest_child", digestMsg{Child: true, Digest: digest(2, "temperature.celsius", "location")}},
		{"digest_down", digestMsg{Down: true, Digest: digest(3, "temperature")}},
		{"digest_peer", digestMsg{Peer: true, Digest: digest(4)}},
		{"digest_remove", digestMsg{Child: true, Remove: true}},
		{"stats", statsQueryMsg{Corr: gid(guid.KindQuery, 10)}},
		{"stats_result", statsResultMsg{Corr: gid(guid.KindQuery, 10), Name: "l10",
			Stats: map[string]float64{"eventbus.index_hits": 42, "remote.forward_failures": 0}}},
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
