package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"eol/internal/backend"
)

// Duration is a time.Duration that unmarshals from either a JSON string
// in Go duration syntax ("250ms", "2s") or a bare integer nanosecond
// count — the format manifest files use for deadlines.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON renders the duration in Go syntax.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Subject is one localization problem of a corpus: a faulty program, the
// failing input, and the expected output (given directly or derived by
// running a correct version, which then doubles as the ground-truth
// benign-state oracle).
type Subject struct {
	// Name labels the subject in results and the journal; Load defaults
	// it to the source file name or "subject-<n>".
	Name string `json:"name,omitempty"`

	// Source is the faulty MiniC program text; File is the manifest-file
	// alternative (path relative to the manifest), loaded into Source.
	Source string `json:"source,omitempty"`
	File   string `json:"file,omitempty"`

	// CorrectSource / CorrectFile optionally supply the corrected
	// program: its run on Input provides Expected (when Expected is
	// empty) and the state oracle that mechanizes the paper's
	// interactive pruning protocol.
	CorrectSource string `json:"correct_source,omitempty"`
	CorrectFile   string `json:"correct_file,omitempty"`

	// Input is the failing input vector.
	Input []int64 `json:"input,omitempty"`
	// Expected is the correct output sequence; may be omitted when a
	// correct version is given.
	Expected []int64 `json:"expected,omitempty"`

	// RootFrag, if non-empty, is a source fragment identifying the
	// root-cause statement (as in eoloc -root): the search stops when it
	// enters the candidate set, and a completed run that does not locate
	// it reports core.ErrNotLocated.
	RootFrag string `json:"root,omitempty"`

	// Deadline bounds this subject's wall clock (0 = Options.Deadline).
	Deadline Duration `json:"deadline,omitempty"`
	// MaxIterations bounds the expansion loop (0 = default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// PathMode selects the safe explicit-path VerifyDep variant.
	PathMode bool `json:"path_mode,omitempty"`
	// CrossFunctionPD extends potential dependences across function
	// boundaries for globals.
	CrossFunctionPD bool `json:"cross_function_pd,omitempty"`
	// Backend is accepted on schema_version 1 and validated (a name the
	// backend registry does not know fails Validate), then ignored:
	// every subject runs on Options.Backend, the VM unless a test or
	// benchmark asks for the reference oracle.
	Backend string `json:"backend,omitempty"`
	// Features is accepted on schema_version 1 and validated (an
	// unknown feature name or mode fails Validate), then ignored: every
	// engine feature is always on.
	Features map[string]string `json:"features,omitempty"`
}

// Defaults are manifest-wide subject defaults, folded into each subject
// by Load where the subject leaves the field zero.
type Defaults struct {
	Deadline        Duration          `json:"deadline,omitempty"`
	MaxIterations   int               `json:"max_iterations,omitempty"`
	PathMode        bool              `json:"path_mode,omitempty"`
	CrossFunctionPD bool              `json:"cross_function_pd,omitempty"`
	Backend         string            `json:"backend,omitempty"`
	Features        map[string]string `json:"features,omitempty"`
}

// Manifest is the on-disk corpus description: defaults plus subjects.
// See docs/CORPUS.md for the format reference.
type Manifest struct {
	Defaults Defaults  `json:"defaults,omitempty"`
	Subjects []Subject `json:"subjects"`
}

// Load reads and validates a manifest file. Relative file/correct_file
// paths are resolved against the manifest's directory and loaded, and
// Defaults are folded into the subjects, so the returned manifest is
// self-contained.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dir := filepath.Dir(path)
	for i := range m.Subjects {
		s := &m.Subjects[i]
		if s.File != "" {
			if s.Source != "" {
				return nil, fmt.Errorf("%s: subject %d: both source and file set", path, i)
			}
			src, err := os.ReadFile(resolve(dir, s.File))
			if err != nil {
				return nil, fmt.Errorf("%s: subject %d: %w", path, i, err)
			}
			s.Source = string(src)
		}
		if s.CorrectFile != "" {
			if s.CorrectSource != "" {
				return nil, fmt.Errorf("%s: subject %d: both correct_source and correct_file set", path, i)
			}
			src, err := os.ReadFile(resolve(dir, s.CorrectFile))
			if err != nil {
				return nil, fmt.Errorf("%s: subject %d: %w", path, i, err)
			}
			s.CorrectSource = string(src)
		}
	}
	m.Fold()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Fold assigns default subject names and folds Defaults into each
// subject where the subject leaves the field zero — the normalization
// Load applies to file manifests, exported for manifests that arrive
// already in memory (the server's wire requests). Idempotent.
func (m *Manifest) Fold() {
	for i := range m.Subjects {
		s := &m.Subjects[i]
		if s.Name == "" {
			if s.File != "" {
				s.Name = filepath.Base(s.File)
			} else {
				s.Name = "subject-" + strconv.Itoa(i)
			}
		}
		if s.Deadline == 0 {
			s.Deadline = m.Defaults.Deadline
		}
		if s.MaxIterations == 0 {
			s.MaxIterations = m.Defaults.MaxIterations
		}
		if m.Defaults.PathMode {
			s.PathMode = true
		}
		if m.Defaults.CrossFunctionPD {
			s.CrossFunctionPD = true
		}
		if s.Backend == "" {
			s.Backend = m.Defaults.Backend
		}
		// Per-key merge: a key the subject leaves unset inherits the
		// manifest default; subject keys (including explicit "default")
		// win.
		for name, mode := range m.Defaults.Features {
			if _, ok := s.Features[name]; ok {
				continue
			}
			if s.Features == nil {
				s.Features = map[string]string{}
			}
			s.Features[name] = mode
		}
	}
}

// Validate checks the manifest is runnable: at least one subject, each
// with program text and a way to obtain the expected output.
func (m *Manifest) Validate() error {
	if len(m.Subjects) == 0 {
		return fmt.Errorf("manifest has no subjects")
	}
	seen := map[string]bool{}
	for i := range m.Subjects {
		s := &m.Subjects[i]
		if s.Source == "" {
			return fmt.Errorf("subject %d (%s): no program (source or file)", i, s.Name)
		}
		if len(s.Expected) == 0 && s.CorrectSource == "" {
			return fmt.Errorf("subject %d (%s): no expected output (expected, correct_source or correct_file)", i, s.Name)
		}
		if s.Name != "" && seen[s.Name] {
			return fmt.Errorf("subject %d: duplicate name %q", i, s.Name)
		}
		seen[s.Name] = true
		if _, err := backend.Lookup(s.Backend); err != nil {
			return fmt.Errorf("subject %d (%s): %w", i, s.Name, err)
		}
		if err := validateFeatures(s.Features); err != nil {
			return fmt.Errorf("subject %d (%s): %w", i, s.Name, err)
		}
	}
	return nil
}

// featureNames are the engine feature names schema_version 1 accepts
// in a "features" key, sorted.
var featureNames = []string{"checkpoints", "incremental_reprune", "static_skip"}

// validateFeatures checks a "features" key: each mode is "on", "off",
// "default" or empty, and each name is in featureNames or names a
// removed feature ("speculation", "static_reach"). The smallest
// offending name is reported.
func validateFeatures(m map[string]string) error {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		switch m[name] {
		case "", "default", "on", "off":
		default:
			return fmt.Errorf("feature %s: unknown feature mode %q (want on, off or default)", name, m[name])
		}
		if !slices.Contains(featureNames, name) && name != "speculation" && name != "static_reach" {
			return fmt.Errorf("unknown feature %q (want one of %v)", name, featureNames)
		}
	}
	return nil
}

func resolve(dir, p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(dir, p)
}
