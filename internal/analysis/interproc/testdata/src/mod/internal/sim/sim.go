package sim

import "sci/internal/analysis/interproc/testdata/src/mod/internal/inner"

func Run() { inner.SimOnly() }
