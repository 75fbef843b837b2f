package rangesvc

// The golden files in testdata/golden pin the JSON of the Range Service's
// query result body, the answer a remote application's Submit decodes. The
// check runs both ways: the body marshals to the golden's bytes exactly, and
// unmarshalling the golden gives the body back. Renaming a JSON tag or
// changing how a field marshals fails here even though a round trip would
// still pass.
//
//	go test ./internal/rangesvc -run TestGoldenQueryResult -update
//
// rewrites them from the current body.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sci/internal/ctxtype"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current body")

// gid is a deterministic GUID: the kind in the top byte, n in the last two.
func gid(kind guid.Kind, n uint16) guid.GUID {
	var g guid.GUID
	g[0] = byte(kind)
	g[14], g[15] = byte(n>>8), byte(n)
	return g
}

func TestGoldenQueryResult(t *testing.T) {
	body := queryResultBody{
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
	path := filepath.Join("testdata", "golden", "query_result.json")
	got, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
	var decoded queryResultBody
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, body) {
		t.Fatalf("decoding gives %+v, want %+v", decoded, body)
	}
}
