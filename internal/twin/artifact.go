package twin

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// ArtifactVersion is the schema version of persisted calibration artifacts.
// Bump it whenever the feature vector, grouping, or JSON layout changes:
// Load refuses mismatched versions, forcing a recalibration instead of
// silently applying stale coefficients to new features.
const ArtifactVersion = 2

// artifactFile is the on-disk form. The fingerprint travels as hex (JSON
// numbers cannot carry 64-bit values losslessly).
type artifactFile struct {
	Version     int          `json:"version"`
	Fingerprint string       `json:"fingerprint"`
	MeasureUops uint64       `json:"measure_uops"`
	IssueWidth  int          `json:"issue_width"`
	Groups      []Group      `json:"groups"`
	Scales      []BenchScale `json:"scales"`
	Scores      Scores       `json:"scores"`
}

// Save persists the fitted model as a versioned JSON artifact.
func (m *Model) Save(path string) error {
	f := artifactFile{
		Version:     m.Version,
		Fingerprint: fmt.Sprintf("%016x", m.Fingerprint),
		MeasureUops: m.MeasureUops,
		IssueWidth:  m.IssueWidth,
		Groups:      m.Groups,
		Scales:      m.Scales,
		Scores:      m.Scores,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a calibration artifact and verifies it matches this build and
// machine: the artifact version must equal ArtifactVersion and the config
// fingerprint must equal wantFingerprint (the digest of the baseline
// structural configuration the sweep will run). A measure-uops mismatch is
// tolerated — coefficients are largely scale-free — and left for the caller
// to surface; everything else is a hard error telling the user to
// recalibrate.
func Load(path string, wantFingerprint uint64) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f artifactFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("twin: parsing artifact %s: %w", path, err)
	}
	if f.Version != ArtifactVersion {
		return nil, fmt.Errorf("twin: artifact %s has version %d, this build expects %d: recalibrate with -calibrate",
			path, f.Version, ArtifactVersion)
	}
	fp, err := strconv.ParseUint(f.Fingerprint, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("twin: artifact %s has malformed fingerprint %q", path, f.Fingerprint)
	}
	if fp != wantFingerprint {
		return nil, fmt.Errorf("twin: artifact %s was calibrated for config fingerprint %016x, this machine is %016x: recalibrate with -calibrate",
			path, fp, wantFingerprint)
	}
	for _, g := range f.Groups {
		if len(g.Theta) != NumFeatures || len(g.EnergyTheta) != NumEnergyFeatures {
			return nil, fmt.Errorf("twin: artifact %s group %s/%s has %d/%d coefficients, expected %d/%d: recalibrate with -calibrate",
				path, g.Mode, g.ClassGroup, len(g.Theta), len(g.EnergyTheta), NumFeatures, NumEnergyFeatures)
		}
	}
	return &Model{
		Version:     f.Version,
		Fingerprint: fp,
		MeasureUops: f.MeasureUops,
		IssueWidth:  f.IssueWidth,
		Groups:      f.Groups,
		Scales:      f.Scales,
		Scores:      f.Scores,
	}, nil
}
