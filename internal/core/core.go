// Package core is the unified entry point to the orchestration library —
// the paper's primary contribution assembled into one API that covers the
// continuum from small-scale to large-scale orchestration (Figure 1).
//
// An App is created from DiaSpec design source. The design is parsed and
// semantically checked (SCC conformance, taxonomy, delivery clauses), then
// executed by the inversion-of-control runtime: the application only
// implements its declared contexts and controllers — either against the raw
// runtime SPI or against a framework generated with GenerateFramework — and
// binds concrete devices. The same App API drives a three-device home and a
// hundred-thousand-sensor city; only the designs and fleets differ.
package core

import (
	"fmt"

	"repro/internal/codegen"
	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/dsl/check"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// App is one orchestration application: a checked design plus its runtime.
type App struct {
	model *check.Model
	rt    *runtime.Runtime

	servers []*transport.Server
}

// NewApp parses, checks and prepares an application from DiaSpec source.
// Runtime options (clock, registry, ingestion tuning, error handler) are
// passed through to the runtime.
func NewApp(designSrc string, opts ...runtime.Option) (*App, error) {
	model, err := dsl.Load(designSrc)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &App{model: model, rt: runtime.New(model, opts...)}, nil
}

// NewAppFromModel wraps an already-checked design model.
func NewAppFromModel(model *check.Model, opts ...runtime.Option) *App {
	return &App{model: model, rt: runtime.New(model, opts...)}
}

// Model returns the checked design model.
func (a *App) Model() *check.Model { return a.model }

// Runtime exposes the underlying runtime for advanced wiring.
func (a *App) Runtime() *runtime.Runtime { return a.rt }

// BindDevice binds a concrete device driver (activity 1: binding).
func (a *App) BindDevice(drv device.Driver) error { return a.rt.BindDevice(drv) }

// BindDevices binds a fleet.
func (a *App) BindDevices(drvs ...device.Driver) error {
	for _, d := range drvs {
		if err := a.rt.BindDevice(d); err != nil {
			return err
		}
	}
	return nil
}

// ImplementContext installs a context implementation (activity 3:
// processing).
func (a *App) ImplementContext(name string, h runtime.ContextHandler) error {
	return a.rt.ImplementContext(name, h)
}

// ImplementController installs a controller implementation (activity 4:
// actuating).
func (a *App) ImplementController(name string, h runtime.ControllerHandler) error {
	return a.rt.ImplementController(name, h)
}

// Start wires and runs the application (activity 2: delivering).
func (a *App) Start() error { return a.rt.Start() }

// Stop shuts the application down, including any servers started with
// ServeDevices.
func (a *App) Stop() {
	a.rt.Stop()
	for _, s := range a.servers {
		s.Close()
	}
	a.servers = nil
}

// Stats returns runtime counters.
func (a *App) Stats() runtime.Stats { return a.rt.Stats() }

// LastPublished returns a context's most recent publication.
func (a *App) LastPublished(contextName string) (any, bool) {
	return a.rt.LastPublished(contextName)
}

// GenerateFramework renders the typed programming framework for this
// application's design (paper §V), as Go source for the given package name.
func (a *App) GenerateFramework(pkg string) ([]byte, error) {
	return codegen.Generate(a.model, codegen.Options{Package: pkg})
}

// ServeDevices exposes the given local drivers over TCP so other processes
// can bind them remotely; the server's address is returned for registry
// endpoints. The server is closed by Stop.
func (a *App) ServeDevices(addr string, drvs ...device.Driver) (string, error) {
	srv, err := transport.NewServer(addr)
	if err != nil {
		return "", err
	}
	for _, d := range drvs {
		srv.Host(d)
	}
	a.servers = append(a.servers, srv)
	return srv.Addr(), nil
}
