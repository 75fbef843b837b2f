package transport

import (
	"fmt"
	"sort"
	"sync"
)

// Config selects and tunes a transport backend by name, so deployments
// (through sci.NewNetwork) pick their network from configuration instead of
// hard-wiring a constructor.
type Config struct {
	// Backend names the transport: "memory" (default) or "tcp". Additional
	// backends register with Register.
	Backend string
	// Memory tunes the "memory" backend.
	Memory MemoryConfig
	// Dir seeds the "tcp" backend's GUID→address directory; nil gets a
	// private empty one.
	Dir *Directory
}

// Builder constructs a Network from a Config.
type Builder func(Config) (Network, error)

var (
	factoryMu sync.RWMutex
	factories = map[string]Builder{}
)

// Register installs a backend builder under name, replacing any previous
// registration. The "memory" and "tcp" backends are pre-registered.
func Register(name string, b Builder) {
	factoryMu.Lock()
	factories[name] = b
	factoryMu.Unlock()
}

// Backends lists registered backend names, sorted.
func Backends() []string {
	factoryMu.RLock()
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	factoryMu.RUnlock()
	sort.Strings(names)
	return names
}

// New builds the configured backend. An empty Backend means "memory".
func New(cfg Config) (Network, error) {
	name := cfg.Backend
	if name == "" {
		name = "memory"
	}
	factoryMu.RLock()
	b, ok := factories[name]
	factoryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown backend %q (have %v)", name, Backends())
	}
	return b(cfg)
}

func init() {
	Register("memory", func(cfg Config) (Network, error) {
		return NewMemory(cfg.Memory), nil
	})
	Register("tcp", func(cfg Config) (Network, error) {
		return NewTCP(cfg.Dir), nil
	})
}
