package main

import "sci/internal/analysis/interproc/testdata/src/mod/internal/inner"

func main() {
	var d inner.Describer = inner.NewImpl()
	_ = d.Describe()
}
