//! Per-request span tracing: the observability layer of the simulators.
//!
//! Both the single-server serving simulator ([`crate::serving`]) and the
//! fleet engine (`llmsim-cluster`) compute every phase boundary of a
//! request's life — arrival, queue wait, dispatch, prefill, decode,
//! completion — and historically discarded them after folding the
//! aggregates into a report. A [`SpanRecord`] keeps the full breakdown,
//! and a [`SpanSink`] decides what happens to it: [`NullSink`] drops spans
//! without assembling them (the default — simulation output is
//! bit-identical with tracing off), [`VecSink`] collects them in memory
//! for the TSV/JSONL writers in `llmsim-report`.
//!
//! Invariant the trace tooling relies on: for a completed span,
//! `queue_delay_s + prefill_s() + decode_s == e2e_s()` up to float
//! rounding, and those reconcile with the engine's reported per-request
//! latencies. Tests in `llmsim-cluster` and `llmsim-bench` assert both.

use llmsim_report::spanlog::{self, Cell, JsonKeys, TabularLog};

/// Terminal state of a traced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Served to completion.
    Completed,
    /// Turned away before dispatch (admission/routing rejection).
    Rejected,
    /// Lost to injected backend faults after its retries ran out (the
    /// fleet engine's crash/retry chains terminate here).
    Failed,
}

impl SpanOutcome {
    /// Stable lowercase label used in trace files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Completed => "completed",
            SpanOutcome::Rejected => "rejected",
            SpanOutcome::Failed => "failed",
        }
    }
}

/// The phase-by-phase life of one request.
///
/// Times are absolute simulation seconds; durations are seconds. Fields
/// that do not exist for a rejected request (dispatch, prefill, decode,
/// completion) are `NaN`, which the log writers render as `NaN` (TSV) or
/// `null` (JSONL).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Workload/request id.
    pub id: u64,
    /// Index of the model served (into the engine's model list; 0 for the
    /// single-model serving simulator).
    pub model: usize,
    /// Replica that served the request (`None` when rejected, and for the
    /// single-server simulator which has exactly one "replica").
    pub replica: Option<usize>,
    /// How the request terminated.
    pub outcome: SpanOutcome,
    /// Arrival time at the router/queue.
    pub arrival_s: f64,
    /// Arrival → dispatch wait (queue + any cold-start warmup). Zero or
    /// positive for completed spans, `NaN` for rejected ones.
    pub queue_delay_s: f64,
    /// Moment the request entered service (prefill start).
    pub dispatch_s: f64,
    /// Moment the prefill pass finished (= first token).
    pub prefill_end_s: f64,
    /// Aggregated decode time over all generated tokens after the first.
    pub decode_s: f64,
    /// Decode steps taken (`gen_len - 1` for a completed request).
    pub decode_steps: u64,
    /// Moment the final token was produced.
    pub completion_s: f64,
    /// Sequences sharing the batch at the moment of dispatch (including
    /// this one).
    pub batch_at_dispatch: u64,
    /// Prompt tokens whose KV was served from a shared prefix cache
    /// (skipping their prefill). Zero whenever paged-KV modeling is off.
    pub prefix_hit_tokens: u64,
    /// Times this request was preempted off a batch slot (KV blocks
    /// exhausted) and recomputed. Zero whenever paged-KV modeling is off.
    pub preemptions: u64,
}

impl SpanRecord {
    /// A rejected-request span: only identity and arrival are known.
    #[must_use]
    pub fn rejected(id: u64, model: usize, arrival_s: f64) -> Self {
        SpanRecord {
            id,
            model,
            replica: None,
            outcome: SpanOutcome::Rejected,
            arrival_s,
            queue_delay_s: f64::NAN,
            dispatch_s: f64::NAN,
            prefill_end_s: f64::NAN,
            decode_s: f64::NAN,
            decode_steps: 0,
            completion_s: f64::NAN,
            batch_at_dispatch: 0,
            prefix_hit_tokens: 0,
            preemptions: 0,
        }
    }

    /// A failed-request span: the request was admitted but every attempt
    /// was destroyed by backend faults. Only identity, arrival, and the
    /// time of the terminal failure are known; `completion_s` records the
    /// failure instant so `e2e_s()` reports time-to-failure.
    #[must_use]
    pub fn failed(id: u64, model: usize, arrival_s: f64, failed_at_s: f64) -> Self {
        SpanRecord {
            completion_s: failed_at_s,
            outcome: SpanOutcome::Failed,
            ..SpanRecord::rejected(id, model, arrival_s)
        }
    }

    /// Prefill duration (`NaN` for rejected spans).
    #[must_use]
    pub fn prefill_s(&self) -> f64 {
        self.prefill_end_s - self.dispatch_s
    }

    /// Arrival-to-first-token latency (`NaN` for rejected spans).
    #[must_use]
    pub fn ttft_s(&self) -> f64 {
        self.prefill_end_s - self.arrival_s
    }

    /// Arrival-to-last-token latency (`NaN` for rejected spans).
    #[must_use]
    pub fn e2e_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }

    /// Column names of the tabular span schema, in field order.
    #[must_use]
    pub fn columns() -> Vec<String> {
        [
            "id",
            "model",
            "replica",
            "outcome",
            "arrival_s",
            "queue_delay_s",
            "dispatch_s",
            "prefill_end_s",
            "decode_s",
            "decode_steps",
            "completion_s",
            "batch_at_dispatch",
            "prefix_hit_tokens",
            "preemptions",
        ]
        .map(String::from)
        .to_vec()
    }

    /// This span as one row of the tabular schema. Building it allocates
    /// nothing: the outcome label is borrowed.
    #[must_use]
    pub fn cells(&self) -> [Cell; 14] {
        [
            Cell::Int(self.id as i64),
            Cell::Int(self.model as i64),
            match self.replica {
                Some(r) => Cell::Int(r as i64),
                None => Cell::Num(f64::NAN),
            },
            Cell::Str(self.outcome.label().into()),
            Cell::Num(self.arrival_s),
            Cell::Num(self.queue_delay_s),
            Cell::Num(self.dispatch_s),
            Cell::Num(self.prefill_end_s),
            Cell::Num(self.decode_s),
            Cell::Int(self.decode_steps as i64),
            Cell::Num(self.completion_s),
            Cell::Int(self.batch_at_dispatch as i64),
            Cell::Int(self.prefix_hit_tokens as i64),
            Cell::Int(self.preemptions as i64),
        ]
    }
}

/// Builds a [`TabularLog`] from spans (render with
/// [`TabularLog::to_tsv`] / [`TabularLog::to_jsonl`]).
#[must_use]
pub fn span_log(spans: &[SpanRecord]) -> TabularLog {
    let mut log = TabularLog::new(SpanRecord::columns());
    for s in spans {
        log.row(s.cells().into());
    }
    log
}

/// Receives spans as the engines resolve requests.
///
/// The engines consult [`SpanSink::enabled`] before assembling a record,
/// so a disabled sink costs nothing on the hot path, and recording never
/// feeds back into scheduling: a simulation with any sink produces the
/// same report as one with [`NullSink`], bit for bit.
pub trait SpanSink {
    /// Called once per request, at the moment its timeline is fully known
    /// (dispatch for completed requests, arrival for rejections).
    fn record(&mut self, span: SpanRecord);

    /// Whether records should be assembled at all. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Expected number of records, called by the engines before the first
    /// [`record`](SpanSink::record). Buffering sinks reserve from it;
    /// the default ignores it.
    fn hint_len(&mut self, _expected: usize) {}

    /// Flush hook, called by the engines exactly once after the last
    /// record. File-backed sinks write out any buffered tail here —
    /// without this hook an early return on the caller's side would
    /// silently drop everything still sitting in the sink's buffer.
    /// Must be safe to call more than once; the default does nothing.
    fn finish(&mut self) {}
}

/// Discards spans without assembling them — the zero-cost default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl SpanSink for NullSink {
    fn record(&mut self, _span: SpanRecord) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Collects spans in memory, in emission order (deterministic: the
/// engines resolve requests in event order).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Spans recorded so far.
    pub spans: Vec<SpanRecord>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    /// An empty sink with room for `expected` spans (what
    /// [`SpanSink::hint_len`] also provides when the engine knows the
    /// request count up front).
    #[must_use]
    pub fn with_capacity(expected: usize) -> Self {
        VecSink {
            spans: Vec::with_capacity(expected),
        }
    }

    /// Renders the collected spans as TSV, rows sorted by request id so
    /// the artifact is stable under event-order-preserving refactors.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut sorted = self.spans.clone();
        sorted.sort_by_key(|s| s.id);
        span_log(&sorted).to_tsv()
    }

    /// Renders the collected spans as JSONL, rows sorted by request id.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut sorted = self.spans.clone();
        sorted.sort_by_key(|s| s.id);
        span_log(&sorted).to_jsonl()
    }
}

impl SpanSink for VecSink {
    fn record(&mut self, span: SpanRecord) {
        self.spans.push(span);
    }

    fn hint_len(&mut self, expected: usize) {
        // Reserve up front: a million-request replay used to reallocate
        // the span vector ~20 times, each a full copy of every record.
        self.spans
            .reserve(expected.saturating_sub(self.spans.len()));
    }
}

/// Wire format of a [`StreamSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanFormat {
    /// Tab-separated values with a header line.
    Tsv,
    /// JSON Lines, one object per span.
    Jsonl,
}

/// Streams spans to a writer as they are emitted, with bounded buffering.
///
/// Unlike [`VecSink`], which holds every record until the run ends, a
/// `StreamSink` renders each span into an internal text buffer the moment
/// it is recorded and flushes that buffer to the writer whenever it
/// crosses the configured threshold — a traced million-request replay
/// holds kilobytes, not gigabytes. Rows appear in *emission order* (the
/// engines' deterministic event order); the bytes are identical to
/// rendering the same spans through [`span_log`] (proptested in
/// `llmsim-cluster`), because both append through the same line
/// renderers in `llmsim_report::spanlog`. A record is appended straight
/// into the buffer, with the JSON keys escaped once per sink, so
/// recording a span allocates nothing.
///
/// I/O errors do not panic (this is library code): the first error is
/// stored, subsequent records are dropped, and [`StreamSink::finish_into`]
/// surfaces it. The engines call [`SpanSink::finish`] after the final
/// record, which flushes the tail; call `finish_into` to get the writer
/// back and check for errors.
#[derive(Debug)]
pub struct StreamSink<W: std::io::Write> {
    writer: W,
    format: SpanFormat,
    columns: Vec<String>,
    /// The JSONL object keys of `columns`, escaped once.
    keys: JsonKeys,
    buf: String,
    /// Flush to the writer once the buffer holds this many bytes.
    flush_at_bytes: usize,
    header_pending: bool,
    records: u64,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> StreamSink<W> {
    const DEFAULT_BUFFER_BYTES: usize = 64 * 1024;

    /// A TSV streaming sink over `writer` (64 KiB buffer).
    #[must_use]
    pub fn tsv(writer: W) -> Self {
        StreamSink::new(writer, SpanFormat::Tsv)
    }

    /// A JSONL streaming sink over `writer` (64 KiB buffer).
    #[must_use]
    pub fn jsonl(writer: W) -> Self {
        StreamSink::new(writer, SpanFormat::Jsonl)
    }

    /// A streaming sink over `writer` in `format` (64 KiB buffer).
    #[must_use]
    pub fn new(writer: W, format: SpanFormat) -> Self {
        let columns = SpanRecord::columns();
        StreamSink {
            writer,
            format,
            keys: JsonKeys::new(&columns),
            columns,
            buf: String::with_capacity(Self::DEFAULT_BUFFER_BYTES + 1024),
            flush_at_bytes: Self::DEFAULT_BUFFER_BYTES,
            header_pending: format == SpanFormat::Tsv,
            records: 0,
            error: None,
        }
    }

    /// Overrides the buffer threshold (clamped to ≥ 1: every record
    /// flushes immediately at 1, useful in tests).
    #[must_use]
    pub fn with_buffer_bytes(mut self, flush_at_bytes: usize) -> Self {
        self.flush_at_bytes = flush_at_bytes.max(1);
        self
    }

    /// Spans recorded so far (including any lost to a write error).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The first I/O error encountered, if any.
    #[must_use]
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    fn flush_buf(&mut self) {
        if self.error.is_some() {
            return;
        }
        if self.header_pending {
            // An empty traced run still yields a valid header-only TSV,
            // matching `span_log(&[]).to_tsv()`.
            let mut header = self.columns.join("\t");
            header.push('\n');
            if let Err(e) = self.writer.write_all(header.as_bytes()) {
                self.error = Some(e);
                return;
            }
            self.header_pending = false;
        }
        if !self.buf.is_empty() {
            let res = self.writer.write_all(self.buf.as_bytes());
            self.buf.clear();
            if let Err(e) = res {
                self.error = Some(e);
                return;
            }
        }
        if let Err(e) = self.writer.flush() {
            self.error = Some(e);
        }
    }

    /// Flushes the tail and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the sink encountered (records after it
    /// were dropped).
    pub fn finish_into(mut self) -> Result<W, std::io::Error> {
        self.flush_buf();
        match self.error.take() {
            None => Ok(self.writer),
            Some(e) => Err(e),
        }
    }
}

impl<W: std::io::Write> SpanSink for StreamSink<W> {
    fn record(&mut self, span: SpanRecord) {
        self.records += 1;
        if self.error.is_some() {
            return;
        }
        let cells = span.cells();
        match self.format {
            SpanFormat::Tsv => spanlog::push_tsv_line(&mut self.buf, &cells),
            SpanFormat::Jsonl => spanlog::push_jsonl_line(&mut self.buf, &self.keys, &cells),
        }
        if self.buf.len() >= self.flush_at_bytes {
            self.flush_buf();
        }
    }

    fn finish(&mut self) {
        self.flush_buf();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim_report::spanlog::validate_tsv;

    fn completed_span(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            model: 0,
            replica: Some(1),
            outcome: SpanOutcome::Completed,
            arrival_s: 1.0,
            queue_delay_s: 0.5,
            dispatch_s: 1.5,
            prefill_end_s: 2.0,
            decode_s: 3.0,
            decode_steps: 15,
            completion_s: 5.0,
            batch_at_dispatch: 2,
            prefix_hit_tokens: 0,
            preemptions: 0,
        }
    }

    /// A completed span whose floats need many digits (and a tiny and a
    /// huge one, which `Display` writes without an exponent), a rejected
    /// span and a failed one.
    fn pinned_spans() -> [SpanRecord; 3] {
        let completed = SpanRecord {
            id: 42,
            model: 1,
            replica: Some(3),
            outcome: SpanOutcome::Completed,
            arrival_s: 0.1 + 0.2,
            queue_delay_s: 2.5e-8,
            dispatch_s: 0.1 + 0.2 + 2.5e-8,
            prefill_end_s: 0.1 + 0.2 + 1.0 / 3.0,
            decode_s: 123_456.789_012_345_6,
            decode_steps: 255,
            completion_s: 1e21 + 0.125,
            batch_at_dispatch: 16,
            prefix_hit_tokens: 4096,
            preemptions: 2,
        };
        [
            completed,
            SpanRecord::rejected(7, 2, 1.25),
            SpanRecord::failed(9, 0, 0.2, 0.2 + 3.5e-9),
        ]
    }

    /// Records `spans` through a stream sink that flushes after every
    /// record, and returns the text written.
    fn streamed(format: SpanFormat, spans: &[SpanRecord]) -> String {
        let mut sink = StreamSink::new(Vec::new(), format).with_buffer_bytes(1);
        for s in spans {
            sink.record(*s);
        }
        String::from_utf8(sink.finish_into().unwrap()).unwrap()
    }

    /// The exact TSV text of [`pinned_spans`], as the wire format stood
    /// before the appending renderer. The buffered and streamed writers
    /// share one renderer, so comparing them with each other cannot catch
    /// a format change; this text can.
    #[test]
    fn tsv_wire_format_is_pinned() {
        let expected = concat!(
            "id\tmodel\treplica\toutcome\tarrival_s\tqueue_delay_s\tdispatch_s\tprefill_end_s\tdecode_s\tdecode_steps\tcompletion_s\tbatch_at_dispatch\tprefix_hit_tokens\tpreemptions\n",
            "42\t1\t3\tcompleted\t0.30000000000000004\t0.000000025\t0.30000002500000006\t0.6333333333333333\t123456.7890123456\t255\t1000000000000000000000\t16\t4096\t2\n",
            "7\t2\tNaN\trejected\t1.25\tNaN\tNaN\tNaN\tNaN\t0\tNaN\t0\t0\t0\n",
            "9\t0\tNaN\tfailed\t0.2\tNaN\tNaN\tNaN\tNaN\t0\t0.20000000350000002\t0\t0\t0\n",
        );
        let spans = pinned_spans();
        assert_eq!(span_log(&spans).to_tsv(), expected);
        assert_eq!(streamed(SpanFormat::Tsv, &spans), expected);
    }

    /// The exact JSONL text of [`pinned_spans`] (see
    /// [`tsv_wire_format_is_pinned`]).
    #[test]
    fn jsonl_wire_format_is_pinned() {
        let expected = concat!(
            "{\"id\":42,\"model\":1,\"replica\":3,\"outcome\":\"completed\",\"arrival_s\":0.30000000000000004,\"queue_delay_s\":0.000000025,\"dispatch_s\":0.30000002500000006,\"prefill_end_s\":0.6333333333333333,\"decode_s\":123456.7890123456,\"decode_steps\":255,\"completion_s\":1000000000000000000000,\"batch_at_dispatch\":16,\"prefix_hit_tokens\":4096,\"preemptions\":2}\n",
            "{\"id\":7,\"model\":2,\"replica\":null,\"outcome\":\"rejected\",\"arrival_s\":1.25,\"queue_delay_s\":null,\"dispatch_s\":null,\"prefill_end_s\":null,\"decode_s\":null,\"decode_steps\":0,\"completion_s\":null,\"batch_at_dispatch\":0,\"prefix_hit_tokens\":0,\"preemptions\":0}\n",
            "{\"id\":9,\"model\":0,\"replica\":null,\"outcome\":\"failed\",\"arrival_s\":0.2,\"queue_delay_s\":null,\"dispatch_s\":null,\"prefill_end_s\":null,\"decode_s\":null,\"decode_steps\":0,\"completion_s\":0.20000000350000002,\"batch_at_dispatch\":0,\"prefix_hit_tokens\":0,\"preemptions\":0}\n",
        );
        let spans = pinned_spans();
        assert_eq!(span_log(&spans).to_jsonl(), expected);
        assert_eq!(streamed(SpanFormat::Jsonl, &spans), expected);
    }

    #[test]
    fn derived_durations_reconcile() {
        let s = completed_span(0);
        assert!((s.prefill_s() - 0.5).abs() < 1e-12);
        assert!((s.ttft_s() - 1.0).abs() < 1e-12);
        assert!((s.e2e_s() - 4.0).abs() < 1e-12);
        assert!(
            (s.queue_delay_s + s.prefill_s() + s.decode_s - s.e2e_s()).abs() < 1e-12,
            "phases must sum to e2e"
        );
    }

    #[test]
    fn rejected_span_has_nan_phases() {
        let s = SpanRecord::rejected(3, 1, 2.5);
        assert_eq!(s.outcome, SpanOutcome::Rejected);
        assert!(s.queue_delay_s.is_nan() && s.e2e_s().is_nan());
        assert_eq!(s.replica, None);
    }

    #[test]
    fn vec_sink_renders_valid_sorted_tsv() {
        let mut sink = VecSink::new();
        sink.record(completed_span(2));
        sink.record(SpanRecord::rejected(0, 0, 0.1));
        let tsv = sink.to_tsv();
        assert_eq!(validate_tsv(&tsv), Ok(2));
        let first_data_line = tsv.lines().nth(1).unwrap();
        assert!(first_data_line.starts_with("0\t"), "rows sorted by id");
        assert!(tsv.starts_with("id\tmodel\treplica\toutcome\t"));
        // JSONL mirrors the same rows.
        assert_eq!(sink.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        assert!(VecSink::new().enabled());
    }

    #[test]
    fn stream_sink_tsv_matches_buffered_render() {
        let spans = vec![
            completed_span(2),
            SpanRecord::rejected(0, 1, 0.1),
            SpanRecord::failed(5, 0, 0.2, 3.5),
        ];
        // Tiny buffer forces a flush per record — the worst case for
        // byte-identity with the one-shot buffered render.
        let mut sink = StreamSink::tsv(Vec::new()).with_buffer_bytes(1);
        sink.hint_len(spans.len());
        for s in &spans {
            sink.record(*s);
        }
        sink.finish();
        assert_eq!(sink.records(), 3);
        let bytes = sink.finish_into().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), span_log(&spans).to_tsv());
    }

    #[test]
    fn stream_sink_jsonl_matches_buffered_render() {
        let spans = vec![SpanRecord::rejected(7, 2, 1.25), completed_span(1)];
        let mut sink = StreamSink::jsonl(Vec::new());
        for s in &spans {
            sink.record(*s);
        }
        let bytes = sink.finish_into().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            span_log(&spans).to_jsonl()
        );
    }

    #[test]
    fn stream_sink_empty_tsv_is_header_only() {
        let sink = StreamSink::tsv(Vec::new());
        let bytes = sink.finish_into().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), span_log(&[]).to_tsv());
    }

    #[test]
    fn stream_sink_surfaces_io_errors_without_panicking() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = StreamSink::tsv(Failing).with_buffer_bytes(1);
        sink.record(completed_span(0));
        sink.record(completed_span(1)); // dropped, error already latched
        assert!(sink.io_error().is_some());
        assert_eq!(sink.records(), 2);
        assert!(sink.finish_into().is_err());
    }

    #[test]
    fn finish_is_idempotent() {
        let mut sink = StreamSink::tsv(Vec::new());
        sink.record(completed_span(0));
        sink.finish();
        sink.finish();
        let bytes = sink.finish_into().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            span_log(&[completed_span(0)]).to_tsv()
        );
    }
}
