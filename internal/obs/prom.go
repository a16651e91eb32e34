package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders a snapshot in the Prometheus text exposition format
// (version 0.0.4): one # HELP / # TYPE header per metric family (help text
// and type come from the catalog), then one line per series. Series within
// a family keep the snapshot's deterministic order.
func WriteText(w io.Writer, s *Snapshot) error {
	type family struct {
		name  string
		typ   string
		lines []string
	}
	fams := map[string]*family{}
	var order []string
	add := func(name, typ, line string) {
		f := fams[name]
		if f == nil {
			f = &family{name: name, typ: typ}
			fams[name] = f
			order = append(order, name)
		}
		f.lines = append(f.lines, line)
	}

	for _, c := range s.Counters {
		add(c.Name, "counter", fmt.Sprintf("%s%s %s", c.Name, renderLabels(c.Labels), formatValue(c.Value)))
	}
	for _, g := range s.Gauges {
		add(g.Name, "gauge", fmt.Sprintf("%s%s %s", g.Name, renderLabels(g.Labels), formatValue(g.Value)))
	}
	for _, h := range s.Histograms {
		bucketLabels := func(le string) string {
			ls := make([]Label, 0, len(h.Labels)+1)
			ls = append(ls, h.Labels...)
			ls = append(ls, L("le", le))
			return renderLabels(ls)
		}
		for _, b := range h.Buckets {
			add(h.Name, "histogram", fmt.Sprintf("%s_bucket%s %d",
				h.Name, bucketLabels(formatValue(b.UpperBound)), b.Count))
		}
		add(h.Name, "histogram", fmt.Sprintf("%s_bucket%s %d",
			h.Name, bucketLabels("+Inf"), h.Count))
		add(h.Name, "histogram", fmt.Sprintf("%s_sum%s %s", h.Name, renderLabels(h.Labels), formatValue(h.Sum)))
		add(h.Name, "histogram", fmt.Sprintf("%s_count%s %d", h.Name, renderLabels(h.Labels), h.Count))
	}

	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		help := name
		if def, ok := LookupMetric(name); ok {
			help = def.Help
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderLabels formats a label set as {k="v",...}, or "" when empty.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper applies the Prometheus text-format label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the collector's current snapshot at every request — mount
// it at /metrics.
func Handler(c *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteText(w, c.Snapshot())
	})
}
