package configuration

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sci/internal/clock"
	"sci/internal/ctxtype"
	"sci/internal/entity"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/resolver"
)

// primerCE is a source CE that counts the times it is primed.
type primerCE struct {
	*sensorCE
	primes atomic.Int64
}

func newPrimerCE(name string, out ctxtype.Type, quality float64, clk *clock.Manual) *primerCE {
	return &primerCE{sensorCE: newSensorCE(name, out, quality, clk)}
}

func (p *primerCE) Prime() { p.primes.Add(1) }

// countingComps is the rig's component table behind a Components that
// counts single and batch lookups.
type countingComps struct {
	r             *rig
	single, batch atomic.Int64
}

func (c *countingComps) Component(g guid.GUID) (entity.CE, bool) {
	c.single.Add(1)
	ce, ok := c.r.comps[g]
	return ce, ok
}

func (c *countingComps) Primers(leaves []guid.GUID, dst []Primer) []Primer {
	c.batch.Add(1)
	for _, id := range leaves {
		if p, ok := c.r.comps[id].(Primer); ok {
			dst = append(dst, p)
		}
	}
	return dst
}

// TestInstantiatePrimesLeaves: each InstantiateBatch primes every local
// Primer leaf exactly once, looking the leaves up in one batch call; a
// leaf that is no Primer, or not local, is skipped, and the consumer is
// looked up on its own, once per input.
func TestInstantiatePrimesLeaves(t *testing.T) {
	r := newRigDoors(t, 2) // two plain doors
	defer r.close()
	var primers []*primerCE
	for _, name := range []string{"primer-0", "primer-1", "primer-2", "remote-primer"} {
		p := newPrimerCE(name, ctxtype.LocationSightingDoor, 0.9, r.clk)
		r.add(t, p)
		primers = append(primers, p)
	}
	remote := primers[3]
	delete(r.comps, remote.ID()) // its profile stays: it is bound, but not local
	comps := &countingComps{r: r}
	r.rt = New(r.med, r.res, comps, 4)

	for k := int64(1); k <= 2; k++ {
		cfg, err := r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cfg.Plan.Leaves); n != 6 {
			t.Fatalf("plan has %d leaves, want the 6 doors", n)
		}
		if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
			t.Fatal(err)
		}
		for _, p := range primers[:3] {
			if n := p.primes.Load(); n != k {
				t.Fatalf("after %d instantiations %s was primed %d times", k, p.Profile().Name, n)
			}
		}
		if n := remote.primes.Load(); n != 0 {
			t.Fatalf("a leaf that is not local was primed %d times", n)
		}
		if single, batch := comps.single.Load(), comps.batch.Load(); single != k || batch != k {
			t.Fatalf("after %d instantiations: %d single lookups (want one per input) and %d batch lookups (want one per instantiate)", k, single, batch)
		}
	}
}

// TestRepairPrimesReplacement: a repair primes the leaves it newly binds,
// so the application does not wait for the replacement's next change, and
// does not prime again a leaf both graphs bind.
func TestRepairPrimesReplacement(t *testing.T) {
	r := newRigDoors(t, 1) // door 0, plain
	defer r.close()
	r.profiles.Remove(r.wlan.ID()) // the plain W-LAN station is out of the running
	door := newPrimerCE("door-primer", ctxtype.LocationSightingDoor, 0.9, r.clk)
	r.add(t, door)
	wlan := newPrimerCE("wlan-primer", ctxtype.LocationSightingWLAN, 0.6, r.clk)
	r.add(t, wlan)

	cfg, err := r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
		t.Fatal(err)
	}
	if d, w := door.primes.Load(), wlan.primes.Load(); d != 1 || w != 0 {
		t.Fatalf("after instantiation: door primed %d times, W-LAN %d; want 1 and 0", d, w)
	}

	// Door 0 fails with no door left to take over: the repair binds the
	// W-LAN station next to the door that stays.
	r.profiles.Remove(r.doors[0].ID())
	r.profiles.Remove(door.ID())
	if err := r.rt.Repair(cfg.ID, r.doors[0].ID()); err != nil {
		t.Fatal(err)
	}
	if w := wlan.primes.Load(); w != 1 {
		t.Fatalf("the replacement was primed %d times by the repair, want 1", w)
	}
	if d := door.primes.Load(); d != 1 {
		t.Fatalf("a leaf bound before and after the repair was primed %d times, want 1", d)
	}
}

// TestPlanSharedUnderChurn: configurations instantiated, repaired and torn
// down concurrently from one cached plan never write it.
func TestPlanSharedUnderChurn(t *testing.T) {
	r := newRigDoors(t, 4)
	defer r.close()
	resolve := func() (*resolver.Configuration, error) {
		return r.res.Resolve(positionQuery(guid.New(guid.KindApplication)), resolver.Context{})
	}
	first, err := resolve()
	if err != nil {
		t.Fatal(err)
	}
	plan := first.Plan
	snapshot := resolver.Plan{Leaves: append([]guid.GUID(nil), plan.Leaves...)}
	for _, in := range plan.Inputs {
		in.Producers = guid.NewSorted(in.Producers.Members()...)
		snapshot.Inputs = append(snapshot.Inputs, in)
	}

	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cfg, err := resolve()
				if err != nil {
					errs <- err
					return
				}
				if cfg.Plan != plan {
					errs <- errors.New("a cache hit carries another plan")
					return
				}
				bound := cfg.Root.Inputs[i%len(cfg.Root.Inputs)].Provider
				if err := r.rt.InstantiateBatch(cfg, resolver.Context{}, func([]event.Event) {}); err != nil {
					errs <- err
					return
				}
				if err := r.rt.Repair(cfg.ID, bound); err != nil {
					errs <- err
					return
				}
				if err := r.rt.Teardown(cfg.ID); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*plan, snapshot) {
		t.Fatalf("the shared plan changed: %+v, was %+v", plan, snapshot)
	}
	if n := r.med.Len(); n != 0 {
		t.Fatalf("Mediator.Len() = %d after every teardown, want 0", n)
	}
}
