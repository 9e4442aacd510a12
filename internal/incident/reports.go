package incident

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// WriteReports writes one JSON report per recorded incident (closed and
// open) into dir, creating it if needed. Files are named
// incident-<id>-pid<pid>.json; an existing file for the same incident is
// overwritten, so calling WriteReports again after more windows refreshes
// the reports. Returns the number of reports written, or ErrNoIncidents
// when there is nothing to write.
func (r *Recorder) WriteReports(dir string) (int, error) {
	incidents := r.Snapshot()
	if len(incidents) == 0 {
		return 0, ErrNoIncidents
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("incident: create report dir: %w", err)
	}
	for _, inc := range incidents {
		name := fmt.Sprintf("incident-%d-pid%d.json", inc.ID, inc.PID)
		if err := telemetry.WriteJSONFile(filepath.Join(dir, name), inc); err != nil {
			return 0, fmt.Errorf("incident: report %d: %w", inc.ID, err)
		}
	}
	return len(incidents), nil
}
