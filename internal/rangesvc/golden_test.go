package rangesvc

// The golden files in testdata/golden pin the JSON of every Range Service
// body, one file per shape: the Fig 5 announcement, registration and its
// ack, deregistration and its ack, the heartbeat, the query and its answer
// or error, the service call and its reply, and the event.batch_ack credit
// report (wire.BatchCredit). Event batches travel in the batch header
// (internal/wire's goldens cover it). Each golden is checked both ways: the
// body marshals to the golden's bytes exactly, and unmarshalling the golden
// gives the body back. Renaming a JSON tag or changing how a field marshals
// fails here even though a round trip would still pass.
//
//	go test ./internal/rangesvc -run TestGolden -update
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
	"time"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current body")

const goldenDir = "testdata/golden"

// gid is a deterministic GUID: the kind in the top byte, n in the last two.
func gid(kind guid.Kind, n uint16) guid.GUID {
	var g guid.GUID
	g[0] = byte(kind)
	g[14], g[15] = byte(n>>8), byte(n)
	return g
}

// goldenQueryResult is the answer a remote application's Submit decodes.
func goldenQueryResult() queryResultBody {
	return queryResultBody{
		Profiles: []*profile.Profile{
			{
				Entity:     gid(guid.KindDevice, 1),
				Name:       "door L10.01",
				Outputs:    []ctxtype.Type{ctxtype.LocationSightingDoor},
				Location:   location.AtPlace("l10.01"),
				Attributes: map[string]string{"door": "d-1001", "kind": "door-sensor"},
			},
			{
				Entity:     gid(guid.KindSoftware, 2),
				Name:       "objLocation",
				Inputs:     []ctxtype.Type{ctxtype.LocationSightingDoor},
				Outputs:    []ctxtype.Type{ctxtype.LocationPosition},
				Quality:    0.9,
				Attributes: map[string]string{"kind": "object-location"},
			},
		},
		Advertisement: &profile.Advertisement{
			Interface:  "printer",
			Operations: []string{"submit", "cancel", "query-queue"},
			Attributes: map[string]string{"colour": "yes", "ppm": "30"},
		},
		Provider: gid(guid.KindDevice, 3),
	}
}

// goldenBodies names one value of every body shape; each name is its
// golden's file name.
func goldenBodies() []struct {
	name string
	body any
} {
	server := gid(guid.KindServer, 4)
	return []struct {
		name string
		body any
	}{
		{"announce", announceBody{Range: gid(guid.KindRange, 5), Registrar: server, Server: server, Name: "level-10"}},
		{"register", registerBody{Application: true, Profile: profile.Profile{
			Entity:  gid(guid.KindApplication, 6),
			Name:    "sciquery",
			Inputs:  []ctxtype.Type{ctxtype.LocationPosition},
			Quality: 0.5,
		}}},
		{"register_ack", registerAckBody{Server: server, Mediator: server, Lease: 30 * time.Second}},
		{"deregister", deregisterBody},
		{"deregister_ack", deregisterAckBody},
		{"heartbeat", heartbeatBody},
		{"query", queryBody{XML: []byte(`<query id="1"><find type="location.position"/></query>`)}},
		{"query_result", goldenQueryResult()},
		{"query_error", queryResultBody{Error: "resolver: no provider for location.position"}},
		{"service_call", serviceCallBody{Provider: gid(guid.KindDevice, 7), Op: "submit",
			Args: map[string]any{"copies": 2.0, "document": "report.pdf"}}},
		{"service_reply", serviceReplyBody{Result: map[string]any{"job": "j-17", "position": 3.0}}},
		{"event_batch_ack", wire.BatchCredit{Events: 64, Dropped: 3, QueueFree: -1}},
	}
}

// checkGolden checks one body against its golden both ways.
func checkGolden(t *testing.T, name string, body any) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".json")
	got, err := json.Marshal(body)
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
	decoded := reflect.New(reflect.TypeOf(body))
	if err := json.Unmarshal(want, decoded.Interface()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.Elem().Interface(), body) {
		t.Fatalf("decoding gives %+v, want %+v", decoded.Elem().Interface(), body)
	}
}

func TestGoldenQueryResult(t *testing.T) {
	checkGolden(t, "query_result", goldenQueryResult())
}

func TestGoldenBodies(t *testing.T) {
	var names []string
	for _, c := range goldenBodies() {
		names = append(names, c.name)
		t.Run(c.name, func(t *testing.T) { checkGolden(t, c.name, c.body) })
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
