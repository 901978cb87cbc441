package model

import (
	"testing"

	"menos/internal/tensor"
)

func generateModel(t *testing.T) *Transformer {
	t.Helper()
	m, err := New(tensor.NewRNG(21), tinyCfg(FamilyLlama))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateBasics(t *testing.T) {
	m := generateModel(t)
	out, err := m.Generate(tensor.NewRNG(1), []int{1, 2, 3}, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("generated %d tokens, want 8", len(out))
	}
	// Prompt preserved.
	for i, want := range []int{1, 2, 3} {
		if out[i] != want {
			t.Fatalf("prompt token %d changed", i)
		}
	}
	// All tokens in vocab.
	for _, id := range out {
		if id < 0 || id >= m.Cfg.Vocab {
			t.Fatalf("token %d out of vocab", id)
		}
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	m := generateModel(t)
	a, err := m.Generate(tensor.NewRNG(1), []int{4, 5}, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(tensor.NewRNG(999), []int{4, 5}, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy ignores the RNG entirely.
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy generation not deterministic")
		}
	}
}

func TestGenerateSamplingSeeded(t *testing.T) {
	m := generateModel(t)
	a, err := m.Generate(tensor.NewRNG(7), []int{4, 5}, 8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(tensor.NewRNG(7), []int{4, 5}, 8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed sampling diverged")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	m := generateModel(t)
	if _, err := m.Generate(tensor.NewRNG(1), nil, 3, 1); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, err := m.Generate(tensor.NewRNG(1), []int{99}, 3, 1); err == nil {
		t.Fatal("out-of-vocab prompt accepted")
	}
	if _, err := m.Generate(tensor.NewRNG(1), []int{1}, 3, -1); err == nil {
		t.Fatal("negative temperature accepted")
	}
	if _, err := m.Generate(tensor.NewRNG(1), []int{1}, -1, 0); err == nil {
		t.Fatal("negative token budget accepted")
	}
}

func TestGenerateWindowsLongPrompts(t *testing.T) {
	m := generateModel(t)
	// Prompt longer than MaxSeq must still work via windowing.
	prompt := make([]int, m.Cfg.MaxSeq+10)
	for i := range prompt {
		prompt[i] = i % m.Cfg.Vocab
	}
	out, err := m.Generate(tensor.NewRNG(2), prompt, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(prompt)+3 {
		t.Fatalf("generated %d tokens", len(out))
	}
}
