package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// LogOptions is the shared structured-logging configuration every
// daemon and CLI exposes as -log-format/-log-level, so "how do I get
// JSON logs" has exactly one answer across vbiworker and the coordinator
// front-ends.
type LogOptions struct {
	// Format selects the slog handler: "text" (the default, human
	// key=value lines) or "json" (one JSON object per record, what the
	// CI observability smoke greps).
	Format string
	// Level is the minimum level emitted: debug, info, warn or error.
	Level string
}

// Flags registers -log-format and -log-level on fs.
func (o *LogOptions) Flags(fs *flag.FlagSet) {
	fs.StringVar(&o.Format, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&o.Level, "log-level", "info", "minimum log level: debug, info, warn or error")
}

// New builds the configured logger writing to w. The zero LogOptions is
// valid (text at info).
func (o LogOptions) New(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(o.Level) {
	case "", "info":
		level = slog.LevelInfo
	case "debug":
		level = slog.LevelDebug
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown -log-level %q (want debug, info, warn or error)", o.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(o.Format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown -log-format %q (want text or json)", o.Format)
	}
}

// Discard is a logger that drops every record: the nil-object for
// components whose Logger field was left unset.
var Discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
	// Above every real level, so records are rejected before formatting.
	Level: slog.Level(127),
}))
