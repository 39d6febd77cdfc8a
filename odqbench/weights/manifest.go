// Package weights describes the stored benchmark models: weights.json,
// written by the genweights command and read by every timed run.
package weights

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest is weights.json: how the weights were made and what ODQ
// realizes on them.
type Manifest struct {
	Command string            `json:"command"`
	Seed    int64             `json:"seed"`
	Scale   json.RawMessage   `json:"scale"`
	Models  map[string]*Model `json:"models"`
}

// Model describes one stored network.
type Model struct {
	Name    string  `json:"name"`
	File    string  `json:"file"`
	Width   float64 `json:"width"`
	QATBits int     `json:"qat_bits"`
	Classes int     `json:"classes"`
	// InitSeed is the models.Config seed the architecture is built with
	// before the stored weights are loaded.
	InitSeed int64   `json:"init_seed"`
	FP32Acc  float64 `json:"fp32_acc"`
	// Threshold is the ODQ threshold the benchmark runs the model at:
	// the adaptive search's pick for resnet20, the fixed sparse-band
	// value (after threshold-aware retraining at it) for vgg16.
	Threshold       float32      `json:"threshold"`
	SearchThreshold float32      `json:"search_threshold"`
	SearchAccuracy  float64      `json:"search_accuracy"`
	TrainSeconds    float64      `json:"train_seconds"`
	Sweep           []SweepPoint `json:"sweep"`
}

// SweepPoint is the realized per-conv sensitive-output density and the
// test accuracy at one threshold (ODQ runs every conv but the first).
type SweepPoint struct {
	Threshold float32   `json:"threshold"`
	Accuracy  float64   `json:"accuracy"`
	Mean      float64   `json:"mean_density"`
	Density   []float64 `json:"density"`
}

// Load reads dir/weights.json.
func Load(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, "weights.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("weights.json: %w", err)
	}
	return &m, nil
}

// Get returns the record of a stored model.
func (m *Manifest) Get(name string) (*Model, error) {
	rec, ok := m.Models[name]
	if !ok {
		return nil, fmt.Errorf("weights.json has no model %q", name)
	}
	return rec, nil
}
