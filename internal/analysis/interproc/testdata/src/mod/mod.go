// Package mod is the root package of the reachability report's fixture
// module: its exported names are roots.
package mod

import "sci/internal/analysis/interproc/testdata/src/mod/internal/inner"

type Thing = inner.Thing

func Hello() { inner.Used() }
