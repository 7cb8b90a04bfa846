package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format v0.0.4 served on /metrics.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus encodes every registered instrument in the Prometheus
// text exposition format (v0.0.4): for each family a # HELP and # TYPE
// comment followed by one sample line per series, with histograms
// expanded into cumulative _bucket{le=...} samples plus _sum and _count.
// Output is deterministic (families in registration order, series sorted
// by label value). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		if err := writeFamily(bw, f); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeFamily(w *bufio.Writer, f *family) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	f.mu.RLock()
	counterFn, gaugeFn := f.counterFn, f.gaugeFn
	f.mu.RUnlock()
	if counterFn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(counterFn()))
		return err
	}
	if gaugeFn != nil {
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(gaugeFn()))
		return err
	}
	for _, value := range f.sortedValues() {
		s, _ := f.get(value)
		switch inst := s.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n",
				f.name, labelPart(f.label, value, ""), inst.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.name, labelPart(f.label, value, ""), formatFloat(inst.Value())); err != nil {
				return err
			}
		case *Histogram:
			if err := writeHistogram(w, f, value, inst); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w *bufio.Writer, f *family, value string, h *Histogram) error {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			f.name, labelPart(f.label, value, formatFloat(bound)), cum,
			exemplarSuffix(h, i)); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
		f.name, labelPart(f.label, value, "+Inf"), cum,
		exemplarSuffix(h, len(h.bounds))); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.name, labelPart(f.label, value, ""),
		formatFloat(math.Float64frombits(h.sumBits.Load()))); err != nil {
		return err
	}
	// _count is the cumulative total just written as the +Inf bucket, so
	// a scrape racing Observe still emits a self-consistent histogram.
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.name, labelPart(f.label, value, ""), cum)
	return err
}

// exemplarSuffix renders a bucket's trace exemplar in OpenMetrics syntax
// (` # {trace_id="..."} value`), or "" when the bucket never saw a
// trace-linked observation — so with tracing unconfigured the exposition
// is byte-identical to the pre-exemplar format.
func exemplarSuffix(h *Histogram, bucket int) string {
	if h.exemplars == nil {
		return ""
	}
	ex := h.exemplars[bucket].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", escapeLabel(ex.TraceID), formatFloat(ex.Value))
}

// labelPart renders the {label="value"[,le="bound"]} block, or "" when
// there are no labels to render.
func labelPart(label, value, le string) string {
	var parts []string
	if label != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", label, escapeLabel(value)))
	}
	if le != "" {
		parts = append(parts, fmt.Sprintf("le=%q", le))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s // %q adds quote escaping
}

// --- exposition validation ------------------------------------------------

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateExposition parses a Prometheus text-format document and returns
// an error describing the first malformed construct: bad metric or label
// names, unparseable sample values, samples of a family whose # TYPE was
// never declared, histograms missing their +Inf bucket or _count/_sum
// series, or non-cumulative bucket counts. The CI smoke job and the ops
// tests run every /metrics scrape through it.
func ValidateExposition(data []byte) error {
	types := make(map[string]string)
	// histogram bookkeeping: family -> series key (labels minus le) -> state
	type histState struct {
		lastCum  float64
		sawInf   bool
		infCum   float64
		sawCount bool
		countVal float64
		sawSum   bool
	}
	hists := make(map[string]*histState)

	lineNo := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				types[name] = typ
			}
			continue
		}
		sampleLine, exemplar := splitExemplar(line)
		name, labels, value, err := parseSample(sampleLine)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if exemplar != "" {
			if !strings.HasSuffix(name, "_bucket") {
				return fmt.Errorf("line %d: exemplar on non-bucket series %s", lineNo, name)
			}
			if err := validateExemplar(exemplar); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		base, sub := histogramBase(name, types)
		if types[name] == "" && base == "" {
			return fmt.Errorf("line %d: sample %s before its # TYPE declaration", lineNo, name)
		}
		if base != "" {
			key := base + "|" + labelsKeyWithoutLe(labels)
			st := hists[key]
			if st == nil {
				st = &histState{}
				hists[key] = st
			}
			switch sub {
			case "bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: %s_bucket without le label", lineNo, base)
				}
				if le == "+Inf" {
					st.sawInf = true
					st.infCum = value
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: bad le value %q", lineNo, le)
				}
				if value < st.lastCum {
					return fmt.Errorf("line %d: %s buckets not cumulative (%g after %g)",
						lineNo, base, value, st.lastCum)
				}
				st.lastCum = value
			case "count":
				st.sawCount = true
				st.countVal = value
			case "sum":
				st.sawSum = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	for key, st := range hists {
		base := strings.SplitN(key, "|", 2)[0]
		if !st.sawInf {
			return fmt.Errorf("histogram %s: missing +Inf bucket", base)
		}
		if !st.sawCount || !st.sawSum {
			return fmt.Errorf("histogram %s: missing _count or _sum", base)
		}
		if st.infCum != st.countVal {
			return fmt.Errorf("histogram %s: +Inf bucket %g != count %g", base, st.infCum, st.countVal)
		}
	}
	return nil
}

// splitExemplar separates a sample line from its OpenMetrics exemplar
// suffix (` # {labels} value [timestamp]`), returning the exemplar part
// without the leading "# ". Lines without one return ("line", "").
func splitExemplar(line string) (sample, exemplar string) {
	idx := strings.LastIndex(line, " # {")
	if idx < 0 {
		return line, ""
	}
	return line[:idx], strings.TrimSpace(line[idx+3:])
}

// validateExemplar checks one exemplar body: a label set followed by a
// parseable value and an optional timestamp.
func validateExemplar(ex string) error {
	if !strings.HasPrefix(ex, "{") {
		return fmt.Errorf("exemplar %q missing label set", ex)
	}
	end := strings.IndexByte(ex, '}')
	if end < 0 {
		return fmt.Errorf("exemplar %q has unbalanced braces", ex)
	}
	labels := map[string]string{}
	if err := parseLabels(ex[1:end], labels); err != nil {
		return fmt.Errorf("exemplar labels: %w", err)
	}
	if len(labels) == 0 {
		return fmt.Errorf("exemplar %q has no labels", ex)
	}
	fields := strings.Fields(ex[end+1:])
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("exemplar %q has %d value fields", ex, len(fields))
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("bad exemplar value %q", fields[0])
	}
	return nil
}

// histogramBase maps name to its declared histogram family and suffix
// ("bucket", "sum", "count"), or "" when name is not a histogram series.
func histogramBase(name string, types map[string]string) (base, sub string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			b := strings.TrimSuffix(name, suffix)
			if types[b] == "histogram" {
				return b, strings.TrimPrefix(suffix, "_")
			}
		}
	}
	return "", ""
}

func labelsKeyWithoutLe(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sortStrings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// parseSample parses `name{k="v",...} value` into its parts.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		if err := parseLabels(rest[brace+1:end], labels); err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, 0, fmt.Errorf("sample %q missing value", line)
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !metricNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", nil, 0, fmt.Errorf("sample %q has %d value fields", line, len(fields))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil && fields[0] != "+Inf" && fields[0] != "-Inf" && fields[0] != "NaN" {
		return "", nil, 0, fmt.Errorf("bad sample value %q", fields[0])
	}
	return name, labels, v, nil
}

func parseLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label pair %q missing =", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !labelNameRe.MatchString(key) {
			return fmt.Errorf("bad label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %s value not quoted", key)
		}
		// Scan the quoted value honoring backslash escapes.
		i := 1
		var val strings.Builder
		for ; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if s[i] == '"' {
				break
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return fmt.Errorf("label %s value unterminated", key)
		}
		into[key] = val.String()
		s = s[i+1:]
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}
