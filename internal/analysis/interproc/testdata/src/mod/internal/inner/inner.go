// Package inner holds the fixture's candidates for the report.
package inner

func Used()    {}
func Dead()    {}
func SimOnly() {}

// Thing is aliased by the root package, so Method is a root.
type Thing struct{}

func (Thing) Method() {}

type Describer interface{ Describe() string }

type Impl struct{}

func NewImpl() *Impl { return &Impl{} }

// Describe is called only through Describer.
func (*Impl) Describe() string { return "impl" }

func (*Impl) Unused() {}
