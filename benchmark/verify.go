package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"streamgraph/internal/graph"
	"streamgraph/internal/oracle"
)

// verifyGraph replays batches into the sequential reference model and
// checks the store against it: every edge, weight and degree, and the
// in/out mirroring. It returns the model for further checks.
func verifyGraph(g graph.Store, batches []*graph.Batch) (*oracle.Model, error) {
	m := oracle.NewModel()
	for _, b := range batches {
		m.ApplyBatch(b)
	}
	if d := m.Verify(g); d != nil {
		return m, d
	}
	return m, nil
}

// verifyServed checks a serving rig after its accepted batches: the
// graph behind the server against the model, and the counts GET /stats
// reports — what a client can see — against the same model.
func verifyServed(r *rig, accepted []*graph.Batch) error {
	m, err := verifyGraph(r.sys.Graph(), accepted)
	if err != nil {
		return err
	}
	res, err := http.Get(r.ts.URL + "/stats")
	if err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	defer res.Body.Close()
	var stats struct {
		Vertices int `json:"vertices"`
		Edges    int `json:"edges"`
	}
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	if stats.Edges != m.NumEdges() {
		return fmt.Errorf("GET /stats reports %d edges, the reference model has %d", stats.Edges, m.NumEdges())
	}
	if maxV, any := m.MaxVertex(); any && stats.Vertices <= int(maxV) {
		return fmt.Errorf("GET /stats reports %d vertices, the batches name vertex %d", stats.Vertices, maxV)
	}
	return nil
}
