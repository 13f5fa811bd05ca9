package obs

import (
	"os"
	"path/filepath"
)

// WriteArtifacts writes trace_<tag>.json (Chrome trace-event array) and
// metrics_<tag>.json (registry snapshot) under dir, creating it if needed.
// Returns the two paths. A nil *Obs writes nothing.
func WriteArtifacts(o *Obs, dir, tag string) (tracePath, metricsPath string, err error) {
	if o == nil {
		return "", "", nil
	}
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}

	tracePath = filepath.Join(dir, "trace_"+tag+".json")
	f, err := os.Create(tracePath)
	if err != nil {
		return "", "", err
	}
	if err = o.Tracer().WriteTrace(f, false); err != nil {
		f.Close()
		return "", "", err
	}
	if err = f.Close(); err != nil {
		return "", "", err
	}

	metricsPath = filepath.Join(dir, "metrics_"+tag+".json")
	f, err = os.Create(metricsPath)
	if err != nil {
		return "", "", err
	}
	if err = o.Registry().WriteJSON(f); err != nil {
		f.Close()
		return "", "", err
	}
	return tracePath, metricsPath, f.Close()
}
