package checkpoint

import (
	"fmt"
	"io"
	"os"

	"menos/internal/model"
)

// SaveModel serializes a pristine model's full base weights — the
// artifact a model owner distributes so clients can build their input
// and output sections from real pre-trained parameters instead of a
// shared seed.
func SaveModel(w io.Writer, m *model.Transformer) error {
	params, err := m.BaseParams()
	if err != nil {
		return fmt.Errorf("checkpoint: enumerate model: %w", err)
	}
	return Save(w, params)
}

// LoadModel restores base weights into a pristine model of the same
// configuration: a full one, or a NewSections one, which takes its
// sections from the full model's file. Every record must match the
// full configuration by name and shape, the body records a sections
// model skips included.
func LoadModel(r io.Reader, m *model.Transformer) error {
	params, err := m.BaseParams()
	if err != nil {
		return fmt.Errorf("checkpoint: enumerate model: %w", err)
	}
	absent, err := m.AbsentBaseParams()
	if err != nil {
		return fmt.Errorf("checkpoint: enumerate model: %w", err)
	}
	return load(r, params, absent)
}

// SaveModelFile writes the model's base weights to path.
func SaveModelFile(path string, m *model.Transformer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: create %s: %w", path, err)
	}
	if err := SaveModel(f, m); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", path, err)
	}
	return nil
}

// LoadModelFile restores base weights from path.
func LoadModelFile(path string, m *model.Transformer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	defer f.Close()
	return LoadModel(f, m)
}
