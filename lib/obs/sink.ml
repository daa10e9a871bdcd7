(* The instrumentation funnel: a sink is either live (metrics and/or a
   span ring) or the shared noop. Every operation pattern-matches the
   relevant component first, so on the noop each call is one branch —
   and the thunked variants ([time], the span operations) never build
   the attribute list or read the clock when nobody is listening. *)

type t = {
  metrics : Metrics.t option;
  spans : Span.t option;
}

let noop = { metrics = None; spans = None }
let create ?metrics ?spans () = { metrics; spans }
let enabled t = Option.is_some t.metrics || Option.is_some t.spans
let metrics t = t.metrics
let spans t = t.spans

let incr ?(by = 1) t name =
  match t.metrics with None -> () | Some m -> Metrics.incr ~by m name

let set_gauge t name v =
  match t.metrics with None -> () | Some m -> Metrics.set_gauge m name v

let observe t name v =
  match t.metrics with None -> () | Some m -> Metrics.observe m name v

let time t name f =
  match t.metrics with
  | None -> f ()
  | Some m ->
      let t0 = Unix.gettimeofday () in
      let result = f () in
      Metrics.observe m name (Unix.gettimeofday () -. t0);
      result

let force_attrs = function None -> [] | Some f -> f ()

let span_start ?parent ?attrs t name =
  match t.spans with
  | None -> -1
  | Some s -> Span.start s ?parent ~attrs:(force_attrs attrs) name

let span_finish ?attrs t id =
  match t.spans with
  | None -> ()
  | Some s -> Span.finish s ~attrs:(force_attrs attrs) id

let span_event ?parent ?attrs t name =
  match t.spans with
  | None -> ()
  | Some s -> Span.event s ?parent ~attrs:(force_attrs attrs) name
