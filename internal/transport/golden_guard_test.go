package transport

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goldenTable lists the SHA-256 of every committed golden under
// internal/*/testdata/golden, stamped with the protocolVersion it was made
// at. The goldens pin the wire format byte for byte; this table pins the
// goldens to the version the hello states.
const goldenTable = "testdata/golden_hashes.txt"

// TestGoldenVersionGuard checks every committed golden against the table.
// A changed or removed golden fails unless protocolVersion has moved past
// the table's stamp, since peers that differ in a byte of the format must
// not agree in the hello. A new golden fails until its line is added; that
// needs no version bump. On failure the message prints the table as it
// should read at the current protocolVersion.
func TestGoldenVersionGuard(t *testing.T) {
	stamp, want := readGoldenTable(t)
	files, err := filepath.Glob("../*/testdata/golden/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no goldens under internal/*/testdata/golden (%v)", err)
	}
	got := make(map[string]string, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[strings.TrimPrefix(filepath.ToSlash(f), "../")] = hex.EncodeToString(sum[:])
	}
	bumped := protocolVersion > stamp
	var problems []string
	for path, h := range got {
		w, ok := want[path]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("new golden %s has no line in %s: add its line (a new golden needs no version bump)", path, goldenTable))
		case w != h && !bumped:
			problems = append(problems, fmt.Sprintf("golden %s changed while protocolVersion is still %d, the table's stamp: a changed golden needs a protocol version bump", path, stamp))
		}
	}
	for path := range want {
		if _, ok := got[path]; !ok && !bumped {
			problems = append(problems, fmt.Sprintf("golden %s was removed while protocolVersion is still %d, the table's stamp: a removed golden needs a protocol version bump", path, stamp))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		paths := make([]string, 0, len(got))
		for p := range got {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		var table strings.Builder
		fmt.Fprintf(&table, "protocol %d\n", protocolVersion)
		for _, p := range paths {
			fmt.Fprintf(&table, "%s  %s\n", got[p], p)
		}
		t.Fatalf("%s\n\nat protocol version %d the table's entries read:\n%s", strings.Join(problems, "\n"), protocolVersion, table.String())
	}
}

// readGoldenTable parses the table: '#' comments, one "protocol N" stamp,
// then "<sha256>  <path under internal/>" lines.
func readGoldenTable(t *testing.T) (int, map[string]string) {
	t.Helper()
	f, err := os.Open(goldenTable)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stamp, hashes := -1, map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenTable, line)
		}
		if fields[0] == "protocol" {
			if stamp, err = strconv.Atoi(fields[1]); err != nil {
				t.Fatalf("%s: bad stamp %q", goldenTable, line)
			}
			continue
		}
		hashes[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if stamp < 0 {
		t.Fatalf("%s has no \"protocol N\" stamp", goldenTable)
	}
	return stamp, hashes
}
