// Package rag implements the retrieval-augmented generation pipeline of
// §2.2.2: semantic chunking → embedding → vector indexing → top-k dense
// retrieval → (optional) reranking → prompt assembly → LLM call, plus the
// iterative multi-hop variant the paper notes is "often iterative" [65].
//
// The pipeline is the E1 experiment's subject: closed-book answers from the
// model's parametric knowledge vs. retrieval-grounded answers, and
// single-shot vs. iterative retrieval on two-hop questions.
package rag

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/llm"
	"dataai/internal/par"
	"dataai/internal/token"
	"dataai/internal/vecdb"
)

// ErrEmptyIndex indicates retrieval against an unpopulated pipeline.
var ErrEmptyIndex = errors.New("rag: nothing ingested")

// Retrieved is one retrieval hit surfaced to the caller.
type Retrieved struct {
	Chunk docstore.Chunk
	Score float32
}

// Answer is a grounded response.
type Answer struct {
	Text       string
	Confidence float64
	Retrieved  []Retrieved
	// Hops is the number of retrieval rounds performed.
	Hops int
	// CostUSD and LatencyMS total the LLM calls behind this answer.
	CostUSD   float64
	LatencyMS float64
	// Shrinks counts context halvings forced by llm.ErrContextOverflow
	// (only under WithContextShrink).
	Shrinks int
	// Degraded reports that a resilience policy in the client produced
	// this answer after the primary model path failed.
	Degraded bool
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithTopK sets the retrieval depth (default 4).
func WithTopK(k int) Option { return func(p *Pipeline) { p.topK = k } }

// WithRerank enables lexical reranking of an over-fetched candidate set:
// the pipeline fetches 4x candidates by embedding similarity, then orders
// them by a blend of vector score and query token overlap (§2.2.1 lists
// "reranking" among the RAG challenges).
func WithRerank() Option { return func(p *Pipeline) { p.rerank = true } }

// WithContextShrink enables graceful degradation on context overflow:
// when the model rejects the assembled prompt with
// llm.ErrContextOverflow, the pipeline halves the retrieved context and
// retries until the prompt fits (or no context remains) instead of
// failing the answer. Off by default — without it, behaviour is
// unchanged and overflow errors propagate as before.
func WithContextShrink() Option { return func(p *Pipeline) { p.shrink = true } }

// Pipeline is a configured RAG stack.
type Pipeline struct {
	client llm.Client
	emb    embed.Embedder
	index  vecdb.Index
	store  *docstore.Store
	topK   int
	rerank bool
	shrink bool
}

// New assembles a pipeline from its parts. index must be empty and match
// emb's dimensionality.
func New(client llm.Client, emb embed.Embedder, index vecdb.Index, opts ...Option) (*Pipeline, error) {
	if emb.Dim() != index.Dim() {
		return nil, fmt.Errorf("rag: embedder dim %d != index dim %d", emb.Dim(), index.Dim())
	}
	p := &Pipeline{
		client: client,
		emb:    emb,
		index:  index,
		store:  docstore.NewStore(),
		topK:   4,
	}
	for _, o := range opts {
		o(p)
	}
	if p.topK < 1 {
		p.topK = 1
	}
	return p, nil
}

// Ingest chunks, embeds, and indexes the documents. Chunking and the
// embedder run on several goroutines at once (the Embedder interface
// requires implementations safe for that); the store and the index are
// written in document order, as one document at a time would write
// them. On an error the store and index hold exactly what that serial
// order would have left: every document before the failing one, and
// the failing document's chunks up to the one that failed.
func (p *Pipeline) Ingest(docs []docstore.Document) error {
	return p.ingest(docs, par.DefaultWorkers())
}

// chunkTokens is the chunk budget at ingest: each document is cut into
// whole sentences packed into chunks of at most chunkTokens tokens
// (docstore.SentenceChunker).
const chunkTokens = 16

// ingestWindow is how many documents ingest cuts and embeds before it
// stores and indexes them: at prep-rag's ~3.7 chunks per document, about
// a thousand chunks a window, enough to keep every worker busy while
// holding few vectors at a time.
const ingestWindow = 256

// ingest is Ingest on up to workers goroutines. Each window of documents
// is cut (a SentenceChunker per document) and embedded (embed.EmbedBatch over
// the window's chunks) in parallel, then committed serially: the store
// receives each document with a chunker that returns the pieces already
// cut, and the index each chunk's vector, in order.
func (p *Pipeline) ingest(docs []docstore.Document, workers int) error {
	var texts []string // the window's chunk texts, in order; reused
	for lo := 0; lo < len(docs); lo += ingestWindow {
		window := docs[lo:min(lo+ingestWindow, len(docs))]
		pieces := par.Map(len(window), workers, func(i int) []string {
			return docstore.SentenceChunker{MaxTokens: chunkTokens}.Chunk(window[i].Text)
		})
		texts = texts[:0]
		for _, ps := range pieces {
			texts = append(texts, ps...)
		}
		vecs := embed.EmbedBatch(p.emb, texts, workers)
		for i, d := range window {
			chunks, err := p.store.AddDocument(d, precut(pieces[i]))
			if err != nil {
				return fmt.Errorf("rag: ingest %s: %w", d.ID, err)
			}
			for _, c := range chunks {
				if err := p.index.Add(c.ID, vecs[0]); err != nil {
					return fmt.Errorf("rag: index %s: %w", c.ID, err)
				}
				vecs = vecs[1:]
			}
		}
	}
	return nil
}

// precut is a docstore.Chunker that returns pieces a chunker has
// already cut, whatever the text.
type precut []string

// Chunk implements docstore.Chunker.
func (c precut) Chunk(string) []string { return c }

// ChunkCount reports how many retrieval units are indexed.
func (p *Pipeline) ChunkCount() int { return p.store.ChunkCount() }

// Remove deletes a document and its chunks from the store and the vector
// index — corrections and retention both need retrieval to forget.
func (p *Pipeline) Remove(docID string) error {
	chunkIDs, err := p.store.RemoveDocument(docID)
	if err != nil {
		return fmt.Errorf("rag: remove %s: %w", docID, err)
	}
	for _, id := range chunkIDs {
		if err := p.index.Delete(id); err != nil {
			return fmt.Errorf("rag: remove %s: %w", docID, err)
		}
	}
	return nil
}

// Retrieve returns the top-k chunks for the query.
func (p *Pipeline) Retrieve(query string, k int) ([]Retrieved, error) {
	if p.store.ChunkCount() == 0 {
		return nil, ErrEmptyIndex
	}
	fetch := k
	if p.rerank {
		fetch = 4 * k
	}
	res, err := p.index.Search(p.emb.Embed(query), fetch)
	if err != nil {
		return nil, fmt.Errorf("rag: search: %w", err)
	}
	out := make([]Retrieved, 0, len(res))
	for _, r := range res {
		ch, err := p.store.Chunk(r.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, Retrieved{Chunk: ch, Score: r.Score})
	}
	if p.rerank {
		out = rerankByOverlap(query, out)
		if len(out) > k {
			out = out[:k]
		}
	}
	return out, nil
}

// rerankByOverlap orders candidates by a blend of dense score and query
// token overlap.
func rerankByOverlap(query string, cands []Retrieved) []Retrieved {
	qtoks := token.Frequencies(token.Tokenize(query))
	type scoredCand struct {
		r     Retrieved
		blend float64
	}
	scored := make([]scoredCand, len(cands))
	for i, c := range cands {
		overlap := 0
		ctoks := token.Tokenize(c.Chunk.Text)
		seen := map[string]bool{}
		for _, t := range ctoks {
			if qtoks[t] > 0 && !seen[t] {
				overlap++
				seen[t] = true
			}
		}
		var j float64
		if len(qtoks) > 0 {
			j = float64(overlap) / float64(len(qtoks))
		}
		scored[i] = scoredCand{c, 0.5*float64(c.Score) + 0.5*j}
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].blend > scored[j].blend })
	out := make([]Retrieved, len(scored))
	for i, s := range scored {
		out[i] = s.r
	}
	return out
}

// grounded issues the final answer call over ctx, applying the
// WithContextShrink degradation policy: each llm.ErrContextOverflow
// halves the context and retries until the prompt fits or no context
// remains. Without the option it is a single Complete call.
func (p *Pipeline) grounded(question string, ctx []string) (llm.Response, int, error) {
	shrinks := 0
	for {
		resp, err := p.client.Complete(llm.Request{Prompt: llm.AnswerPrompt(question, ctx)})
		if err == nil || !p.shrink || !errors.Is(err, llm.ErrContextOverflow) || len(ctx) == 0 {
			return resp, shrinks, err
		}
		ctx = ctx[:len(ctx)/2]
		shrinks++
	}
}

// Answer runs one retrieval round and asks the model with the retrieved
// context.
func (p *Pipeline) Answer(question string) (Answer, error) {
	hits, err := p.Retrieve(question, p.topK)
	if err != nil {
		return Answer{}, err
	}
	ctx := make([]string, len(hits))
	for i, h := range hits {
		ctx[i] = h.Chunk.Text
	}
	resp, shrinks, err := p.grounded(question, ctx)
	if err != nil {
		return Answer{}, fmt.Errorf("rag: answer: %w", err)
	}
	return Answer{
		Text:       resp.Text,
		Confidence: resp.Confidence,
		Retrieved:  hits,
		Hops:       1,
		CostUSD:    resp.CostUSD,
		LatencyMS:  resp.LatencyMS,
		Shrinks:    shrinks,
		Degraded:   resp.Degraded,
	}, nil
}

// AnswerIterative performs multi-hop retrieval: it retrieves for the
// original question, asks the model to name the bridging entity, issues a
// second retrieval focused on that entity, and answers over the union of
// both context sets. Questions that don't need a bridge degrade gracefully
// to single-hop behaviour.
func (p *Pipeline) AnswerIterative(question string) (Answer, error) {
	first, err := p.Retrieve(question, p.topK)
	if err != nil {
		return Answer{}, err
	}
	ctx := make([]string, len(first))
	for i, h := range first {
		ctx[i] = h.Chunk.Text
	}
	var cost, lat float64
	hops := 1

	bridgeResp, err := p.client.Complete(llm.Request{Prompt: llm.BridgePrompt(question, ctx)})
	if err != nil {
		return Answer{}, fmt.Errorf("rag: bridge: %w", err)
	}
	cost += bridgeResp.CostUSD
	lat += bridgeResp.LatencyMS

	all := first
	if !llm.IsUnknown(bridgeResp.Text) {
		followup := reformulate(question, bridgeResp.Text)
		second, err := p.Retrieve(followup, p.topK)
		if err == nil {
			hops++
			seen := map[string]bool{}
			for _, h := range all {
				seen[h.Chunk.ID] = true
			}
			for _, h := range second {
				if !seen[h.Chunk.ID] {
					all = append(all, h)
					ctx = append(ctx, h.Chunk.Text)
				}
			}
		}
	}

	resp, shrinks, err := p.grounded(question, ctx)
	if err != nil {
		return Answer{}, fmt.Errorf("rag: answer: %w", err)
	}
	return Answer{
		Text:       resp.Text,
		Confidence: resp.Confidence,
		Retrieved:  all,
		Hops:       hops,
		CostUSD:    cost + resp.CostUSD,
		LatencyMS:  lat + resp.LatencyMS,
		Shrinks:    shrinks,
		Degraded:   resp.Degraded,
	}, nil
}

// reformulate builds the follow-up retrieval query once the bridging
// entity is known: "What is the R2 of the entity whose R1 is X?" becomes
// "What is the R2 of <entity>?". Unrecognized shapes just append the
// entity as a retrieval hint.
func reformulate(question, entity string) string {
	marker := " of the entity whose "
	if idx := strings.Index(question, marker); idx >= 0 {
		return question[:idx] + " of " + entity + "?"
	}
	return question + " " + entity
}
