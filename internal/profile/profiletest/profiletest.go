// Package profiletest holds helpers for tests that check the Profile
// Manager's read-only contract: what its finders return shares the stored
// profiles, and Get and All return copies.
package profiletest

import (
	"sci/internal/ctxtype"
	"sci/internal/profile"
)

// Scribble writes through every slice, map and Advertisement field of p, as
// a caller that ignored the read-only contract would. A store that shared
// any of them with p would see the writes.
func Scribble(p *profile.Profile) {
	for i := range p.Inputs {
		p.Inputs[i] = ctxtype.Type("scribbled.input")
	}
	for i := range p.Outputs {
		p.Outputs[i] = ctxtype.Type("scribbled.output")
	}
	scribbleMap(p.Attributes)
	if ad := p.Advertisement; ad != nil {
		ad.Interface = "scribbled"
		for i := range ad.Operations {
			ad.Operations[i] = "scribbled"
		}
		scribbleMap(ad.Attributes)
	}
}

func scribbleMap(m map[string]string) {
	if m == nil {
		return
	}
	for k := range m {
		m[k] = "scribbled"
	}
	m["scribbled"] = "yes"
}
