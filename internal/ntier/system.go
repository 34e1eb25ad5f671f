package ntier

import (
	"fmt"

	"transientbd/internal/cpu"
	"transientbd/internal/jvm"
	"transientbd/internal/server"
	"transientbd/internal/simnet"
	"transientbd/internal/trace"
	"transientbd/internal/workload"
)

// Wire sizes used for Table I style network accounting. They approximate
// the RUBBoS message sizes: small requests downstream, pages and result
// sets upstream.
const (
	clientReqBytes = 500
	webToAppBytes  = 400
	appRespBytes   = 6 * 1024
	appToClBytes   = 300
	clRespBytes    = 1536
	clToDBBytes    = 300
)

// System is a fully wired n-tier deployment ready to run.
type System struct {
	cfg       Config
	engine    *simnet.Engine
	collector *trace.Collector
	gen       *workload.Generator

	web     []*server.Server
	app     []*server.Server
	cluster []*server.Server
	db      []*server.Server

	appHeaps []*jvm.Heap

	rngNoise *simnet.RNG
	conns    *connPool
	rrApp    int
	rrDB     int
	rrCl     int
	rrWeb    int

	// Scenario state + ground-truth accounting.
	appActive     int // app servers in rotation (autoscale adds one mid-run)
	convoy        *serialLock
	convoyWindows []TruthWindow
	cache         *queryCache
	hogWindows    []TruthWindow
}

// Build constructs the system from cfg.
func Build(cfg Config) (*System, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	engine := simnet.NewEngine()
	collector := trace.NewCollector()
	root := simnet.NewRNG(cfg.Seed)

	s := &System{
		cfg:       cfg,
		engine:    engine,
		collector: collector,
		rngNoise:  root.Split("noise"),
		conns:     newConnPool(engine),
	}

	mkProc := func(gov cpu.Governor, period simnet.Duration) (*cpu.Processor, error) {
		return cpu.NewProcessor(engine, cpu.Config{
			Cores:         coresPerVM,
			Governor:      gov,
			ControlPeriod: period,
		})
	}

	// Web tier (Apache): fixed P0, retransmission-capable accept queue.
	for i := 0; i < cfg.Topology.Web; i++ {
		proc, err := mkProc(cpu.FixedGovernor{State: 0}, 0)
		if err != nil {
			return nil, fmt.Errorf("ntier: web processor: %w", err)
		}
		srv, err := server.New(engine, proc, nil, collector, server.Config{
			Name:          tierName("apache", i, cfg.Topology.Web),
			Threads:       cfg.WebThreads,
			AcceptBacklog: cfg.WebAcceptBacklog,
		})
		if err != nil {
			return nil, fmt.Errorf("ntier: web server: %w", err)
		}
		s.web = append(s.web, srv)
	}

	// App tier (Tomcat): optional JVM heap with the configured collector.
	// An autoscale scenario builds one spare that joins the rotation
	// mid-run.
	appCount := cfg.Topology.App
	if cfg.Autoscale {
		appCount++
	}
	for i := 0; i < appCount; i++ {
		proc, err := mkProc(cpu.FixedGovernor{State: 0}, 0)
		if err != nil {
			return nil, fmt.Errorf("ntier: app processor: %w", err)
		}
		var heap *jvm.Heap
		if cfg.AppCollector != 0 {
			heap, err = jvm.NewHeap(engine, proc, jvm.Config{
				Kind:      cfg.AppCollector,
				HeapBytes: cfg.AppHeapBytes,
			})
			if err != nil {
				return nil, fmt.Errorf("ntier: app heap: %w", err)
			}
			s.appHeaps = append(s.appHeaps, heap)
		}
		srv, err := server.New(engine, proc, heap, collector, server.Config{
			Name:    tierName("tomcat", i, appCount),
			Threads: appThreads,
		})
		if err != nil {
			return nil, fmt.Errorf("ntier: app server: %w", err)
		}
		s.app = append(s.app, srv)
	}
	s.appActive = cfg.Topology.App
	if cfg.Autoscale {
		engine.At(cfg.spareWarmup().Start, func() { s.appActive = appCount })
	}

	// Cluster middleware (C-JDBC).
	for i := 0; i < cfg.Topology.Cluster; i++ {
		proc, err := mkProc(cpu.FixedGovernor{State: 0}, 0)
		if err != nil {
			return nil, fmt.Errorf("ntier: cluster processor: %w", err)
		}
		srv, err := server.New(engine, proc, nil, collector, server.Config{
			Name:    tierName("cjdbc", i, cfg.Topology.Cluster),
			Threads: clusterThreads,
		})
		if err != nil {
			return nil, fmt.Errorf("ntier: cluster server: %w", err)
		}
		s.cluster = append(s.cluster, srv)
	}

	// DB tier (MySQL): SpeedStep governor per config.
	for i := 0; i < cfg.Topology.DB; i++ {
		proc, err := mkProc(cfg.newDBGovernor(), cfg.GovernorPeriod)
		if err != nil {
			return nil, fmt.Errorf("ntier: db processor: %w", err)
		}
		proc.Start()
		srv, err := server.New(engine, proc, nil, collector, server.Config{
			Name:    tierName("mysql", i, cfg.Topology.DB),
			Threads: dbThreads,
		})
		if err != nil {
			return nil, fmt.Errorf("ntier: db server: %w", err)
		}
		s.db = append(s.db, srv)
	}

	if cfg.DBConnCap > 0 {
		for _, cl := range s.cluster {
			for _, db := range s.db {
				s.conns.setCap(cl.Name(), db.Name(), cfg.DBConnCap)
			}
		}
	}

	if cfg.Convoy != nil {
		s.convoy = newSerialLock(engine)
		var holdStart simnet.Time
		var janitor func()
		janitor = func() {
			s.convoy.with(convoyHoldLen,
				func() { holdStart = engine.Now() },
				func() {
					s.convoyWindows = append(s.convoyWindows, TruthWindow{Start: holdStart, End: engine.Now()})
				})
			engine.Schedule(convoyPeriod, janitor)
		}
		engine.Schedule(convoyPeriod, janitor)
	}

	if cfg.Stampede != nil {
		s.cache = newQueryCache(root.Split("cache"))
		period := cfg.Stampede.Period
		var invalidate func()
		invalidate = func() {
			s.cache.invalidate(engine.Now())
			engine.Schedule(period, invalidate)
		}
		engine.Schedule(period, invalidate)
	}

	if cfg.Antagonist != nil {
		var victim *server.Server
		for _, srv := range s.AllServers() {
			if srv.Name() == cfg.Antagonist.Target {
				victim = srv
				break
			}
		}
		if victim == nil {
			return nil, fmt.Errorf("ntier: antagonist target %q not in topology", cfg.Antagonist.Target)
		}
		proc := victim.Processor()
		spec := *cfg.Antagonist
		var hog func()
		hog = func() {
			// Occupy every core for the burst length; the hog competes
			// FCFS with application requests, exactly like a co-located
			// VM stealing the physical cores.
			now := engine.Now()
			s.hogWindows = append(s.hogWindows, TruthWindow{Start: now, End: now + spec.BurstLen})
			for c := 0; c < proc.Cores(); c++ {
				proc.Submit(spec.BurstLen, nil)
			}
			engine.Schedule(spec.Period, hog)
		}
		engine.Schedule(spec.Period, hog)
	}

	var openLoop *workload.OpenLoopConfig
	if cfg.OpenLoop != nil {
		openLoop = &workload.OpenLoopConfig{
			Rate:        cfg.OpenLoop.Rate,
			SurgeFactor: cfg.OpenLoop.SurgeFactor,
			SurgeEvery:  cfg.OpenLoop.SurgeEvery,
			SurgeLen:    cfg.OpenLoop.SurgeLen,
		}
	}
	gen, err := workload.NewGenerator(engine, root.Split("workload"), workload.Config{
		Users:      cfg.Users,
		ThinkMean:  cfg.ThinkMean,
		Burst:      cfg.Burst,
		Mix:        cfg.Mix,
		Submit:     s.submit,
		RecordFrom: cfg.Ramp,
		OpenLoop:   openLoop,
	})
	if err != nil {
		return nil, fmt.Errorf("ntier: generator: %w", err)
	}
	s.gen = gen
	return s, nil
}

func tierName(base string, idx, count int) string {
	if count == 1 {
		return base
	}
	return fmt.Sprintf("%s-%d", base, idx+1)
}

// noisy applies lognormal service-time noise to a nominal demand.
func (s *System) noisy(d simnet.Duration) simnet.Duration {
	return simnet.Duration(float64(d) * s.rngNoise.LogNormal(noiseSigma))
}

// withConvoy prepends the critical-section phase when name is the convoy
// target: the request holds the serial lock (off-CPU, FIFO) before its
// normal processing.
func (s *System) withConvoy(name string, phases []server.Phase) []server.Phase {
	if s.convoy == nil || name != s.cfg.Convoy.Target {
		return phases
	}
	hold := s.noisy(convoyCritWork)
	lock := server.Downstream{Do: func(done func()) {
		s.convoy.with(hold, nil, done)
	}}
	return append([]server.Phase{lock}, phases...)
}

// slowdown returns the autoscale warm-up service-time multiplier for an
// app server (1 for everything except the spare during its warm-up).
func (s *System) slowdown(appIdx int) float64 {
	if !s.cfg.Autoscale || appIdx != len(s.app)-1 {
		return 1
	}
	w := s.cfg.spareWarmup()
	now := s.engine.Now()
	if now >= w.End {
		return 1
	}
	progress := float64(now-w.Start) / float64(w.End-w.Start)
	if progress < 0 {
		progress = 0
	}
	return spareSlowFactor - (spareSlowFactor-1)*progress
}

// submit dispatches one client transaction into the web tier.
func (s *System) submit(ix *workload.Interaction, txn int64, done func()) {
	web := s.web[s.rrWeb%len(s.web)]
	s.rrWeb++
	s.conns.acquire("client", web.Name(), func(conn int64) {
		hop := s.collector.NextHopID()
		webWork := s.noisy(ix.WebWork)
		req := &server.Request{
			Class:     ix.Name,
			TxnID:     txn,
			HopID:     hop,
			ParentHop: 0,
			From:      "client",
			Conn:      conn,
			ReqBytes:  clientReqBytes,
			RespBytes: ix.PageBytes,
			Phases: s.withConvoy(web.Name(), []server.Phase{
				server.Compute{Work: webWork / 2},
				server.Downstream{Do: func(appDone func()) {
					s.callApp(ix, txn, hop, web.Name(), appDone)
				}},
				server.Compute{Work: webWork - webWork/2},
			}),
			OnDone: func() {
				s.conns.release("client", web.Name(), conn)
				done()
			},
		}
		// Receive only fails on malformed requests, which construction
		// rules out; a failure here is a programming error worth surfacing
		// loudly.
		if err := web.Receive(req); err != nil {
			panic(fmt.Sprintf("ntier: web receive: %v", err))
		}
	})
}

// callApp dispatches the app-tier portion of a transaction.
func (s *System) callApp(ix *workload.Interaction, txn, parentHop int64, from string, done func()) {
	appIdx := s.rrApp % s.appActive
	app := s.app[appIdx]
	s.rrApp++
	s.conns.acquire(from, app.Name(), func(conn int64) {
		hop := s.collector.NextHopID()
		// A warming autoscale spare serves every app-side phase slower.
		slow := s.slowdown(appIdx)
		appWork := func(d simnet.Duration) simnet.Duration {
			return simnet.Duration(float64(s.noisy(d)) * slow)
		}

		phases := make([]server.Phase, 0, 2*len(ix.Queries)+2)
		phases = append(phases, server.Compute{Work: appWork(ix.AppPreWork)})
		for qi := range ix.Queries {
			q := ix.Queries[qi]
			if s.cache != nil && s.cache.lookup(s.engine.Now()) {
				// Cache hit: the result is served from the app tier; no
				// downstream call.
				phases = append(phases, server.Compute{Work: appWork(cacheHitWork)})
				continue
			}
			phases = append(phases, server.Downstream{Do: func(qDone func()) {
				s.callCluster(ix, q, txn, hop, app.Name(), qDone)
			}})
			phases = append(phases, server.Compute{Work: appWork(ix.AppPerQueryWork)})
		}
		phases = append(phases, server.Compute{Work: appWork(ix.AppPostWork)})

		req := &server.Request{
			Class:      ix.Name,
			TxnID:      txn,
			HopID:      hop,
			ParentHop:  parentHop,
			From:       from,
			Conn:       conn,
			ReqBytes:   webToAppBytes,
			RespBytes:  appRespBytes,
			AllocBytes: ix.AllocBytes,
			Phases:     s.withConvoy(app.Name(), phases),
			OnDone: func() {
				s.conns.release(from, app.Name(), conn)
				done()
			},
		}
		if err := app.Receive(req); err != nil {
			panic(fmt.Sprintf("ntier: app receive: %v", err))
		}
	})
}

// callCluster dispatches one query through the clustering middleware.
func (s *System) callCluster(ix *workload.Interaction, q workload.Query, txn, parentHop int64, from string, done func()) {
	cl := s.cluster[s.rrCl%len(s.cluster)]
	s.rrCl++
	s.conns.acquire(from, cl.Name(), func(conn int64) {
		hop := s.collector.NextHopID()
		clWork := s.noisy(ix.ClusterPerQueryWork)
		req := &server.Request{
			Class:     q.Template,
			TxnID:     txn,
			HopID:     hop,
			ParentHop: parentHop,
			From:      from,
			Conn:      conn,
			ReqBytes:  appToClBytes,
			RespBytes: clRespBytes,
			Phases: s.withConvoy(cl.Name(), []server.Phase{
				server.Compute{Work: clWork * 2 / 3},
				server.Downstream{Do: func(dbDone func()) {
					s.callDB(q, txn, hop, cl.Name(), dbDone)
				}},
				server.Compute{Work: clWork / 3},
			}),
			OnDone: func() {
				s.conns.release(from, cl.Name(), conn)
				done()
			},
		}
		if err := cl.Receive(req); err != nil {
			panic(fmt.Sprintf("ntier: cluster receive: %v", err))
		}
	})
}

// callDB dispatches one query to a database server (round-robin, as
// C-JDBC balances read-only queries).
func (s *System) callDB(q workload.Query, txn, parentHop int64, from string, done func()) {
	db := s.db[s.rrDB%len(s.db)]
	s.rrDB++
	// On a capped pool this acquire may park the calling thread (it stays
	// inside the cluster tier's Downstream phase) until a connection
	// frees.
	s.conns.acquire(from, db.Name(), func(conn int64) {
		hop := s.collector.NextHopID()
		phases := []server.Phase{
			server.Compute{Work: s.noisy(q.Work)},
		}
		req := &server.Request{
			Class:     q.Template,
			TxnID:     txn,
			HopID:     hop,
			ParentHop: parentHop,
			From:      from,
			Conn:      conn,
			ReqBytes:  clToDBBytes,
			RespBytes: q.RespBytes,
			Phases:    s.withConvoy(db.Name(), phases),
			OnDone: func() {
				s.conns.release(from, db.Name(), conn)
				done()
			},
		}
		if err := db.Receive(req); err != nil {
			panic(fmt.Sprintf("ntier: db receive: %v", err))
		}
	})
}

// Engine returns the simulation engine.
func (s *System) Engine() *simnet.Engine { return s.engine }

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// WebServers, AppServers, ClusterServers, DBServers return the tier
// members in index order.
func (s *System) WebServers() []*server.Server     { return s.web }
func (s *System) AppServers() []*server.Server     { return s.app }
func (s *System) ClusterServers() []*server.Server { return s.cluster }
func (s *System) DBServers() []*server.Server      { return s.db }

// AppHeaps returns the app-tier JVM heaps (empty when GC is disabled).
func (s *System) AppHeaps() []*jvm.Heap { return s.appHeaps }

// AllServers returns every server, web tier first.
func (s *System) AllServers() []*server.Server {
	out := make([]*server.Server, 0, len(s.web)+len(s.app)+len(s.cluster)+len(s.db))
	out = append(out, s.web...)
	out = append(out, s.app...)
	out = append(out, s.cluster...)
	out = append(out, s.db...)
	return out
}

// MeasuredWindow returns the [start, end) window covered by Result data.
func (s *System) MeasuredWindow() (start, end simnet.Time) {
	return s.cfg.Ramp, s.cfg.Ramp + s.cfg.Duration
}

// Result is the harvest of one run.
type Result struct {
	// Window is the measured [start, end).
	WindowStart, WindowEnd simnet.Time
	// Samples are end-to-end RTs for transactions issued in the window.
	Samples []workload.RTSample
	// Visits are per-server request records assembled from the wire trace
	// (whole run, including ramp; filter by time when needed).
	Visits []trace.Visit
	// Messages is the raw wire capture.
	Messages []trace.Message
	// Utilization is each server's average CPU utilization (0..1) over
	// the measured window.
	Utilization map[string]float64
	// GroundTruth carries one machine-readable injection record per
	// configured bottleneck mechanism, windows clipped to the measured
	// window. Empty when no scenario mechanism is configured.
	GroundTruth []GroundTruth
}

// Run drives the system for ramp + duration and harvests results.
func (s *System) Run() (*Result, error) {
	s.gen.Start()
	horizon := s.cfg.Ramp + s.cfg.Duration

	// Snapshot busy counters at the end of ramp-up so utilization covers
	// only the measured window.
	busyAtRamp := make(map[string]float64, len(s.AllServers()))
	s.engine.At(s.cfg.Ramp, func() {
		for _, srv := range s.AllServers() {
			busyAtRamp[srv.Name()] = srv.Processor().BusyCoreMicros()
		}
	})

	if err := s.engine.Run(horizon); err != nil {
		return nil, fmt.Errorf("ntier: run: %w", err)
	}

	util := make(map[string]float64, len(s.AllServers()))
	for _, srv := range s.AllServers() {
		util[srv.Name()] = srv.Processor().Utilization(busyAtRamp[srv.Name()], s.cfg.Ramp)
	}
	msgs := s.collector.Messages()
	visits, err := trace.Assemble(msgs)
	if err != nil {
		return nil, fmt.Errorf("ntier: assemble trace: %w", err)
	}
	start, end := s.MeasuredWindow()
	return &Result{
		WindowStart: start,
		WindowEnd:   end,
		Samples:     s.gen.Samples(),
		Visits:      visits,
		Messages:    msgs,
		Utilization: util,
		GroundTruth: s.groundTruth(),
	}, nil
}

// groundTruth assembles the machine-readable injection records for every
// configured scenario mechanism, clipped to the measured window.
func (s *System) groundTruth() []GroundTruth {
	start, end := s.MeasuredWindow()
	now := s.engine.Now()
	var out []GroundTruth

	if s.cfg.DBConnCap > 0 {
		// One record per DB host: their wait windows differ. The cluster
		// tier holding the exhausted pools is part of the blast site — the
		// cap acts on its outbound edge, and callers observe the clip
		// there — so it is included in every record's server set.
		var callers []string
		for _, cl := range s.cluster {
			callers = append(callers, cl.Name())
		}
		for _, db := range s.db {
			out = append(out, GroundTruth{
				Cause:   CausePoolExhaustion,
				Servers: append([]string{db.Name()}, callers...),
				Windows: clipWindows(s.conns.waitWindowsFor(db.Name(), now), start, end),
			})
		}
	}
	if s.cfg.Convoy != nil {
		out = append(out, GroundTruth{
			Cause:   CauseLockConvoy,
			Servers: []string{s.cfg.Convoy.Target},
			Windows: clipWindows(s.convoyWindows, start, end),
		})
	}
	if s.cfg.Stampede != nil {
		var dbs []string
		for _, db := range s.db {
			dbs = append(dbs, db.Name())
		}
		out = append(out, GroundTruth{
			Cause:   CauseCacheStampede,
			Servers: dbs,
			Windows: clipWindows(s.cache.windows(now), start, end),
		})
	}
	if s.cfg.Antagonist != nil {
		out = append(out, GroundTruth{
			Cause:   CauseNoisyNeighbor,
			Servers: []string{s.cfg.Antagonist.Target},
			Windows: clipWindows(s.hogWindows, start, end),
		})
	}
	if ol := s.cfg.OpenLoop; ol != nil {
		var apps []string
		for i := 0; i < s.appActive; i++ {
			apps = append(apps, s.app[i].Name())
		}
		var ws []TruthWindow
		if ol.SurgeFactor > 1 {
			for k := simnet.Duration(1); k*ol.SurgeEvery < end; k++ {
				ws = append(ws, TruthWindow{
					Start: k * ol.SurgeEvery,
					End:   k*ol.SurgeEvery + ol.SurgeLen,
				})
			}
		} else {
			// Constant overload: the whole window is the injection.
			ws = []TruthWindow{{Start: start, End: end}}
		}
		out = append(out, GroundTruth{
			Cause:   CauseOverload,
			Servers: apps,
			Windows: clipWindows(ws, start, end),
		})
	}
	if s.cfg.Autoscale {
		spare := s.app[len(s.app)-1]
		out = append(out, GroundTruth{
			Cause:   CauseSlowStart,
			Servers: []string{spare.Name()},
			Windows: clipWindows([]TruthWindow{s.cfg.spareWarmup()}, start, end),
		})
	}
	return out
}

// PagesPerSecond returns the measured page throughput of a result.
func (r *Result) PagesPerSecond() float64 {
	span := (r.WindowEnd - r.WindowStart).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(len(r.Samples)) / span
}
