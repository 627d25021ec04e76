// Package dataai is the public facade of the Data+AI library — a Go
// implementation of the architecture in "Data+AI: LLM4Data and Data4LLM"
// (Li, Wang, Zhang, Wang; SIGMOD 2025).
//
// The library has two faces, mirroring the paper's two directions:
//
// Both sketches below start from a synthetic corpus:
//
//	c, _ := dataai.GenerateCorpus(dataai.DefaultCorpusConfig(1))
//	docs := make([]dataai.Document, len(c.Docs))
//	for i, d := range c.Docs {
//		docs[i] = dataai.Document{ID: d.ID, Text: d.Text}
//	}
//
// LLM4Data — using (simulated) LLMs to process data:
//
//	client := dataai.NewSimulatedLLM(dataai.LargeModel(), 42)
//	emb := dataai.NewEmbedder(dataai.DefaultEmbedDim)
//	pipeline, _ := dataai.NewRAG(client, emb, dataai.NewFlatIndex(emb.Dim()))
//	_ = pipeline.Ingest(docs)
//	answer, _ := pipeline.Answer("What is the ceo of Zorvex Fi?")
//
// Data4LLM — using data management to optimize the LLM lifecycle:
//
//	clean, _ := dataai.ApplyFilters(c.Texts(), dataai.DefaultHeuristicFilter())
//	minhash, _ := dataai.NewMinHasher(128, 32, 3, 1)
//	kept, _ := minhash.Dedup(clean, 0.6)
//	lm := dataai.NewNGramLM()
//	lm.TrainAll(kept)
//
// Every subsystem the paper surveys is available through the subpackage
// re-exports below; the experiment suite in bench_test.go and
// cmd/benchall regenerates the paper's qualitative claims end to end.
package dataai

import (
	"dataai/internal/agent"
	"dataai/internal/core"
	"dataai/internal/corpus"
	"dataai/internal/dataprep"
	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/extract"
	"dataai/internal/faults"
	"dataai/internal/lake"
	"dataai/internal/llm"
	"dataai/internal/llm/ngram"
	"dataai/internal/metrics"
	"dataai/internal/obs"
	"dataai/internal/prompting"
	"dataai/internal/rag"
	"dataai/internal/relation"
	"dataai/internal/resilient"
	"dataai/internal/rewrite"
	"dataai/internal/semop"
	"dataai/internal/serving"
	"dataai/internal/training"
	"dataai/internal/vecdb"
	"dataai/internal/workload"
)

// DefaultEmbedDim is the conventional embedding dimensionality.
const DefaultEmbedDim = embed.DefaultDim

// --- Simulated LLM substrate (package llm) ---

// LLMClient completes prompts; implementations include the simulator,
// response cache, and model cascade.
type LLMClient = llm.Client

// LLMModel describes a simulated model tier.
type LLMModel = llm.Model

// LLMRequest and LLMResponse are the completion call types.
type (
	LLMRequest  = llm.Request
	LLMResponse = llm.Response
)

// LargeModel and SmallModel are the built-in model tiers.
var (
	LargeModel = llm.LargeModel
	SmallModel = llm.SmallModel
)

// NewSimulatedLLM builds the deterministic LLM simulator.
func NewSimulatedLLM(m LLMModel, seed uint64) *llm.Simulator { return llm.NewSimulator(m, seed) }

// NewLLMCache wraps a client with an exact-prompt response cache.
func NewLLMCache(inner LLMClient) *llm.Cache { return llm.NewCache(inner) }

// NewLLMCascade routes cheap-first with confidence-based escalation.
func NewLLMCascade(cheap, expensive LLMClient, threshold float64) *llm.Cascade {
	return llm.NewCascade(cheap, expensive, threshold)
}

// NewNGramLM builds the statistical language model used for perplexity
// scoring.
func NewNGramLM() *ngram.Model { return ngram.New() }

// --- Fault injection and resilience (packages faults, resilient) ---

// FaultPlan sets per-call fault probabilities for the injector;
// LightFaults/MediumFaults/SevereFaults are the standard presets.
type FaultPlan = faults.Plan

// LightFaults, MediumFaults, and SevereFaults are the preset fault
// severities used by experiment E22.
var (
	LightFaults  = faults.Light
	MediumFaults = faults.Medium
	SevereFaults = faults.Severe
)

// NewFaultInjector wraps a client with the deterministic seeded fault
// injector: every fault is a pure function of (prompt, seed, attempt#).
func NewFaultInjector(inner LLMClient, plan FaultPlan, seed uint64) *faults.Injector {
	return faults.New(inner, plan, seed)
}

// ResiliencePolicy configures the resilience middleware; RetryOnly and
// FullResilience are the standard presets.
type ResiliencePolicy = resilient.Policy

// RetryOnly and FullResilience are the preset policies used by
// experiment E22.
var (
	RetryOnly      = resilient.RetryOnly
	FullResilience = resilient.Full
)

// WrapResilient layers retry/backoff, circuit breaking, hedging, and
// graceful degradation over any client; all waits are charged to
// simulated latency, never slept.
func WrapResilient(inner LLMClient, policy ResiliencePolicy) *resilient.Client {
	return resilient.Wrap(inner, policy)
}

// --- Embeddings and vector search (packages embed, vecdb) ---

// Embedder converts text to vectors.
type Embedder = embed.Embedder

// NewEmbedder builds the deterministic hash embedder.
func NewEmbedder(dim int) *embed.HashEmbedder { return embed.NewHashEmbedder(dim) }

// VectorIndex is the vector database contract.
type VectorIndex = vecdb.Index

// NewFlatIndex, NewIVFIndex, and NewHNSWIndex build the three index types.
func NewFlatIndex(dim int) *vecdb.Flat { return vecdb.NewFlat(dim) }

// NewIVFIndex builds an inverted-file index (train before searching).
func NewIVFIndex(dim, nlist, nprobe int, seed int64) *vecdb.IVF {
	return vecdb.NewIVF(dim, nlist, nprobe, seed)
}

// NewHNSWIndex builds a hierarchical navigable small world graph index.
func NewHNSWIndex(dim, m, efConstruction int, seed int64) *vecdb.HNSW {
	return vecdb.NewHNSW(dim, m, efConstruction, seed)
}

// --- Documents and corpora (packages docstore, corpus) ---

// Document is a stored source document; Chunk a retrieval unit.
type (
	Document = docstore.Document
	Chunk    = docstore.Chunk
)

// SentenceChunker and FixedChunker are the segmentation policies.
type (
	SentenceChunker = docstore.SentenceChunker
	FixedChunker    = docstore.FixedChunker
)

// CorpusConfig controls synthetic corpus generation; Corpus is the result.
type (
	CorpusConfig = corpus.Config
	Corpus       = corpus.Corpus
)

// DefaultCorpusConfig returns the standard four-domain configuration.
var DefaultCorpusConfig = corpus.DefaultConfig

// GenerateCorpus builds a synthetic corpus with known ground truth.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) {
	g, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// --- LLM4Data (packages rag, semop, extract, lake, agent, relation) ---

// RAG is the retrieval-augmented generation pipeline.
type RAG = rag.Pipeline

// NewRAG assembles a RAG pipeline.
func NewRAG(client LLMClient, e Embedder, idx VectorIndex, opts ...rag.Option) (*RAG, error) {
	return rag.New(client, e, idx, opts...)
}

// RAGWithRerank and RAGWithTopK configure NewRAG.
var (
	RAGWithRerank = rag.WithRerank
	RAGWithTopK   = rag.WithTopK
)

// Semantic operators over relational tables with text columns.
type (
	SemExecutor  = semop.Executor
	SemFilter    = semop.SemFilter
	SemExtractOp = semop.SemExtract
)

// NewSemExecutor builds a semantic-operator executor.
func NewSemExecutor(client LLMClient) *semop.Executor { return semop.NewExecutor(client) }

// OptimizeSemOps reorders a semantic-operator pipeline for cost.
var OptimizeSemOps = semop.Optimize

// Table is the in-memory relational table; Catalog resolves names for SQL.
type (
	Table   = relation.Table
	Schema  = relation.Schema
	Catalog = relation.Catalog
)

// NewTable creates a typed relational table.
var NewTable = relation.NewTable

// Schema extraction strategies (Evaporate).
type (
	DirectExtractor    = extract.Direct
	EvaporateExtractor = extract.Evaporate
)

// Lake is a multi-modal data lake; LakePlanner compiles NL queries into
// tool pipelines over it.
type (
	Lake        = lake.Lake
	LakePlanner = lake.Planner
)

// BuildLake constructs a lake from a corpus.
var BuildLake = lake.BuildFromCorpus

// NewLakePlanner wires the SYMPHONY/CAESURA-style planner.
var NewLakePlanner = lake.NewPlanner

// Query rewriting with execution-based equivalence verification.
type (
	QueryRewriter        = rewrite.Rewriter
	RewriteProposer      = rewrite.Proposer
	SimulatedLLMProposer = rewrite.SimulatedLLMProposer
)

// ParseQuery parses SQL into a structured, rewritable form.
var ParseQuery = relation.ParseQuery

// Agent executes multi-step tool plans with self-reflection.
type (
	Agent     = agent.Agent
	AgentTool = agent.Tool
)

// NewAgent builds an agent over a tool registry.
var NewAgent = agent.New

// Prompting techniques (§2.2.1): demonstration selection and compression.
type (
	DemoSelector = prompting.DemoSelector
	LLMExample   = llm.Example
)

// Prompting entry points.
var (
	NewDemoSelector = prompting.NewDemoSelector
	CompressContext = prompting.Compress
	// ClassifyFewShot builds a classification prompt with demonstrations.
	ClassifyFewShot = llm.ClassifyPromptFewShot
)

// --- Data4LLM (packages dataprep, training, serving, workload) ---

// Data preparation primitives.
type (
	Filter     = dataprep.Filter
	MinHasher  = dataprep.MinHasher
	Selector   = dataprep.Selector
	DomainPool = dataprep.DomainPool
	Mixture    = dataprep.Mixture
)

// Cleaning and dedup entry points.
var (
	ApplyFilters           = dataprep.ApplyFilters
	DefaultHeuristicFilter = dataprep.DefaultHeuristicFilter
	FitClassifierFilter    = dataprep.FitClassifierFilter
	NewMinHasher           = dataprep.NewMinHasher
	ExactDedup             = dataprep.ExactDedup
)

// Selection and mixture entry points.
var (
	ImportanceMixture = dataprep.ImportanceMixture
	GradientMixture   = dataprep.GradientMixture
	UniformMixture    = dataprep.UniformMixture
)

// Training simulation.
type (
	TrainModelConfig = training.ModelConfig
	TrainCluster     = training.ClusterConfig
	TrainStrategy    = training.Strategy
	TrainCheckpoint  = training.Checkpoint
)

// Training strategies and helpers.
const (
	StrategyDP    = training.DP
	StrategyZeRO1 = training.ZeRO1
	StrategyZeRO2 = training.ZeRO2
	StrategyZeRO3 = training.ZeRO3
	StrategyFSDP  = training.FSDP
)

// ParallelConfig is a 3D (data × pipeline × tensor) parallel layout.
type ParallelConfig = training.ParallelConfig

// Training entry points.
var (
	MemoryPerWorker   = training.MemoryPerWorker
	SimulateTraining  = training.SimulateRun
	NewCheckpoint     = training.NewCheckpoint
	MemoryPerDevice3D = training.MemoryPerDevice3D
	StepTime3D        = training.StepTime3D
	BestLayout        = training.BestLayout
)

// Serving simulation.
type (
	ServingGPU       = serving.GPUConfig
	ServingReport    = serving.Report
	ServingRequest   = workload.Request
	ContinuousOpts   = serving.ContinuousOpts
	DisaggOpts       = serving.DisaggOpts
	RouterPolicy     = serving.RouterPolicy
	RoutedReport     = serving.RoutedReport
	ServingFaultPlan = serving.FaultPlan
	// ClusterConfig configures RunCluster: instances, router, fault
	// plan, recovery and admission.
	ClusterConfig = serving.ClusterConfig
	// RecoveryConfig turns on the crash-survivable stack for a cluster:
	// periodic decode-state checkpoints, live session migration, and
	// tiered (GPU+CPU) prefix caches.
	RecoveryConfig = serving.RecoveryConfig
)

// Multi-tenant serving: workload specs with per-client tenants, SLO
// classes and arrival processes; token-bucket admission at the router;
// class-aware batch formation; per-tenant outcomes.
type (
	WorkloadSpec    = workload.WorkloadSpec
	ClientSpec      = workload.ClientSpec
	ArrivalSpec     = workload.ArrivalSpec
	LengthSpec      = workload.LengthSpec
	SLOClass        = workload.SLOClass
	ArrivalProcess  = workload.ArrivalProcess
	AdmissionConfig = serving.AdmissionConfig
	AdmissionPolicy = serving.AdmissionPolicy
	SchedPolicy     = serving.SchedPolicy
	TenantStats     = serving.TenantStats
)

// Multi-tenant enums: SLO classes, arrival processes, admission
// policies, and batch-formation orders.
const (
	SLOInteractive = workload.Interactive
	SLOBatch       = workload.Batch

	ArrivePoisson     = workload.Poisson
	ArriveGammaBurst  = workload.GammaBurst
	ArriveDiurnalRamp = workload.DiurnalRamp

	AdmitAll    = serving.AdmitAll
	AdmitReject = serving.AdmitReject
	AdmitQueue  = serving.AdmitQueue

	SchedFCFS     = serving.SchedFCFS
	SchedPriority = serving.SchedPriority
	SchedSJF      = serving.SchedSJF
)

// Routing policies for multi-instance serving.
const (
	RouteRoundRobin   = serving.RoundRobin
	RouteCacheAware   = serving.CacheAware
	RouteBreakerAware = serving.BreakerAware
)

// Serving entry points.
var (
	DefaultGPU        = serving.DefaultGPU
	RunStaticBatching = serving.RunStatic
	RunContinuous     = serving.RunContinuous
	RunDisaggregated  = serving.RunDisaggregated
	// RunCluster serves a trace on a routed multi-instance cluster; a
	// colocated GPU pool is the RoundRobin router.
	RunCluster          = serving.Run
	MediumFaultPlan     = serving.MediumFaultPlan
	SevereFaultPlan     = serving.SevereFaultPlan
	CorrelatedFaultPlan = serving.CorrelatedFaultPlan
	CascadeFaultPlan    = serving.CascadeFaultPlan
	GenerateTrace       = workload.Generate
	DefaultTrace        = workload.DefaultTrace
	GenerateSpec        = workload.GenerateSpec
	DefaultMultiTenant  = workload.DefaultMultiTenant
	JainIndex           = metrics.Jain
	JainWeighted        = metrics.JainWeighted
)

// Observability: logical-clock spans, a counter/gauge registry, and
// Perfetto-exportable Chrome traces. Attach a Tracer through
// ContinuousOpts.Trace / DisaggOpts.Trace (serving) or SetObs (LLM
// middleware); a nil Tracer costs nothing.
type (
	Tracer      = obs.Tracer
	TraceSpan   = obs.Span
	TraceMetric = obs.Metric
	// DecisionLog records every routing decision of a RunCluster run
	// (attach via ContinuousOpts.Decisions); ReplayRegret prices each
	// decision of a ClusterConfig's run by counterfactual replay.
	DecisionLog     = obs.DecisionLog
	RoutingDecision = obs.Decision
	ForcedChoice    = serving.ForcedChoice
	ReplayConfig    = serving.ReplayConfig
	RegretSummary   = serving.RegretSummary
)

// Observability entry points.
var (
	NewTracer      = obs.NewTracer
	PhaseBreakdown = obs.PhaseBreakdown
	ReplayRegret   = serving.ReplayRegret
)

// --- Core orchestration (package core) ---

// Hub routes across registered models; Pipeline composes prep stages;
// Flywheel runs the §2.4 feedback loop.
type (
	Hub      = core.Hub
	Stage    = core.Stage
	Flywheel = core.Flywheel
)

// Orchestration entry points.
var (
	NewHub          = core.NewHub
	NewCorePipeline = core.NewPipeline
	NewFlywheel     = core.NewFlywheel
)
