package rangesvc

import (
	"testing"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/leak"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
)

// TestConnectorOverSeparateTCPNetworks is sciquery against scid in one
// process: the Connector's network knows only the Host's address, the
// Host's knows nothing of the Connector, and the registration, a pattern
// query and a once subscription are all answered, the subscribed event
// included, over the connection the Connector dialed.
func TestConnectorOverSeparateTCPNetworks(t *testing.T) {
	defer leak.Check(t)()
	rng := server.New(server.Config{Name: "level-10"})
	defer rng.Close()
	hostNet := transport.NewTCP(nil)
	defer hostNet.Close()
	host, err := NewHost(rng, hostNet, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	for _, name := range []string{"P1", "P2"} {
		if err := rng.AddEntity(sensor.NewPrinter(name, location.AtPlace("l10.01"), nil)); err != nil {
			t.Fatal(err)
		}
	}
	addr, ok := hostNet.Directory().Lookup(rng.ServerID())
	if !ok {
		t.Fatal("host address not registered")
	}

	appNet := transport.NewTCP(nil)
	defer appNet.Close()
	appNet.Directory().Register(rng.ServerID(), addr)
	id := guid.New(guid.KindApplication)
	events := make(chan event.Event, 1)
	app, err := NewConnector(id, "remote-app", appNet, func(e event.Event) {
		select {
		case events <- e:
		default:
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := app.Register(rng.ServerID(), profile.Profile{}, true); err != nil {
		t.Fatal(err)
	}

	what := query.What{Pattern: ctxtype.PrinterStatus}
	res, err := app.Submit(query.New(id, what, query.ModeProfile))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 2 {
		t.Fatalf("pattern query answered %d profiles, want 2", len(res.Profiles))
	}
	res, err = app.Submit(query.New(id, what, query.ModeOnce))
	if err != nil {
		t.Fatal(err)
	}
	if res.Configuration.IsNil() {
		t.Fatalf("once subscription answered %+v", res)
	}
	select {
	case e := <-events:
		if e.Type != ctxtype.PrinterStatus {
			t.Fatalf("delivered %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event for the once subscription")
	}
}
