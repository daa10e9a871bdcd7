(* CRC-framed JSON-lines write-ahead log records.

   Framing: a record encodes to a flat Json object whose first field is
   the LSN and whose last field is a CRC-32 over the object as it would
   be WITHOUT the crc field — i.e. over the line's own bytes before
   [,"crc":], closed by '}'. The writer emits one canonical rendering of
   each record and the decoder accepts only that rendering, so it can
   checksum the raw bytes it was given — no second framing layer
   needed, and the log stays plain JSONL. *)

module Json = Mvcc_obs.Json
module Sink = Mvcc_obs.Sink

type src = Mvcc_engine.Event.read_src =
  | From_init
  | From_self
  | From_txn of int

type record =
  | State of { entity : string; value : int }
  | Begin of { txn : int; ts : int }
  | Op of { txn : int; entity : string; write : bool; src : src option }
  | Install of { txn : int; entity : string; value : int; wts : int }
  | Commit of { txn : int }
  | Abort of { txn : int; reason : string }
  | Checkpoint of { snapshot : string; commits : int }

(* CRC-32 (IEEE 802.3, reflected), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* Slicing-by-8: eight chained tables let the hot writer path checksum
   eight bytes per iteration with independent lookups instead of one
   serially-dependent lookup per byte. [crc_tables.(0)] is the classic
   table above; agreement with {!crc32} is pinned by the codec
   roundtrip and writer-bytes properties in test_durable. *)
let crc_tables =
  lazy
    (let t0 = Lazy.force crc_table in
     let ts = Array.make 8 t0 in
     for k = 1 to 7 do
       ts.(k) <-
         Array.map (fun c -> t0.(c land 0xff) lxor (c lsr 8)) ts.(k - 1)
     done;
     ts)

let crc32_bytes s ~pos ~len =
  let ts = Lazy.force crc_tables in
  let t0 = ts.(0) and t1 = ts.(1) and t2 = ts.(2) and t3 = ts.(3) in
  let t4 = ts.(4) and t5 = ts.(5) and t6 = ts.(6) and t7 = ts.(7) in
  let byte i = Char.code (Bytes.unsafe_get s i) in
  let c = ref 0xffffffff in
  let i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    let j = !i in
    let lo =
      !c
      lxor (byte j
           lor (byte (j + 1) lsl 8)
           lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff)
      lxor Array.unsafe_get t3 (byte (j + 4))
      lxor Array.unsafe_get t2 (byte (j + 5))
      lxor Array.unsafe_get t1 (byte (j + 6))
      lxor Array.unsafe_get t0 (byte (j + 7));
    i := j + 8
  done;
  while !i < stop do
    c := Array.unsafe_get t0 ((!c lxor byte !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c

(* The CRC a framed line carries: of its body bytes closed by '}' — the
   object as it would be without the crc field, which the framed line
   puts in place of that brace. *)
let body_crc s ~pos ~len =
  let c = crc32_bytes s ~pos ~len in
  let t = Lazy.force crc_table in
  Array.unsafe_get t ((c lxor Char.code '}') land 0xff)
  lxor (c lsr 8) lxor 0xffffffff

let fields = function
  | State { entity; value } ->
      [ ("rec", Json.Str "state"); ("entity", Json.Str entity);
        ("value", Json.Int value) ]
  | Begin { txn; ts } ->
      [ ("rec", Json.Str "begin"); ("txn", Json.Int txn); ("ts", Json.Int ts) ]
  | Op { txn; entity; write; src } ->
      [ ("rec", Json.Str "op"); ("txn", Json.Int txn);
        ("entity", Json.Str entity); ("write", Json.Bool write) ]
      @ (match src with
        | None -> []
        | Some From_init -> [ ("src", Json.Str "init") ]
        | Some From_self -> [ ("src", Json.Str "self") ]
        | Some (From_txn w) -> [ ("src", Json.Int w) ])
  | Install { txn; entity; value; wts } ->
      [ ("rec", Json.Str "install"); ("txn", Json.Int txn);
        ("entity", Json.Str entity); ("value", Json.Int value);
        ("wts", Json.Int wts) ]
  | Commit { txn } -> [ ("rec", Json.Str "commit"); ("txn", Json.Int txn) ]
  | Abort { txn; reason } ->
      [ ("rec", Json.Str "abort"); ("txn", Json.Int txn);
        ("reason", Json.Str reason) ]
  | Checkpoint { snapshot; commits } ->
      [ ("rec", Json.Str "checkpoint"); ("snapshot", Json.Str snapshot);
        ("commits", Json.Int commits) ]

let frame fs =
  let body = Json.obj fs in
  Printf.sprintf "%s,\"crc\":%d}"
    (String.sub body 0 (String.length body - 1))
    (crc32 body)

let encode ~lsn r = frame (("lsn", Json.Int lsn) :: fields r)

(* Fast framing: each append renders the record's line into a reusable
   per-writer scratch with unsafe byte stores, checksums the body in one
   slicing-by-8 pass, and blits the framed line into the writer's
   buffer — no intermediate field lists, strings, or Printf.
   Byte-identical to [encode] (qcheck-pinned in test_durable). *)
let[@inline] put_byte s pos x =
  Bytes.unsafe_set s !pos x;
  incr pos

(* a byte loop: the literals are 5-20 bytes, too short to pay for a
   call to the C blit *)
let put_raw s pos x =
  let p = !pos in
  for k = 0 to String.length x - 1 do
    Bytes.unsafe_set s (p + k) (String.unsafe_get x k)
  done;
  pos := p + String.length x

(* non-negative ints (the common case) render without allocating: count
   the digits, then fill them in from the right *)
let put_digits s pos i =
  let n = ref 1 and bound = ref 10 in
  (* 10^18 is the largest power of ten an int holds *)
  while !n < 19 && i >= !bound do
    incr n;
    bound := !bound * 10
  done;
  let k = ref i in
  for j = !pos + !n - 1 downto !pos do
    Bytes.unsafe_set s j (Char.unsafe_chr (48 + (!k mod 10)));
    k := !k / 10
  done;
  pos := !pos + !n

let put_int s pos i =
  if i < 0 then put_raw s pos (string_of_int i) else put_digits s pos i

let put_str s pos x =
  put_byte s pos '"';
  for k = 0 to String.length x - 1 do
    match String.unsafe_get x k with
    | '"' -> put_raw s pos "\\\""
    | '\\' -> put_raw s pos "\\\\"
    | '\n' -> put_raw s pos "\\n"
    | '\r' -> put_raw s pos "\\r"
    | '\t' -> put_raw s pos "\\t"
    | ch when Char.code ch < 0x20 ->
        put_raw s pos (Printf.sprintf "\\u%04x" (Char.code ch))
    | ch -> put_byte s pos ch
  done;
  put_byte s pos '"'

let emit_line ~scratch buf ~lsn r =
  let s = !scratch in
  (* strict upper bound on the line: ~160 bytes of keys, literals, int
     digits and crc tail, plus the worst escape blow-up (6x) of the one
     free-form string a record can carry *)
  let bound =
    192
    + 6
      * String.length
          (match r with
          | State { entity; _ } | Op { entity; _ } | Install { entity; _ } ->
              entity
          | Abort { reason; _ } -> reason
          | Checkpoint { snapshot; _ } -> snapshot
          | Begin _ | Commit _ -> "")
  in
  let s =
    if Bytes.length s < bound then begin
      let s' = Bytes.create (max bound (2 * Bytes.length s)) in
      scratch := s';
      s'
    end
    else s
  in
  let pos = ref 0 in
  let byte x = put_byte s pos x in
  let raw x = put_raw s pos x in
  let int x = put_int s pos x in
  let str x = put_str s pos x in
  (* keys and literal values fused into one blit per fragment *)
  raw "{\"lsn\":";
  int lsn;
  (match r with
  | State { entity; value } ->
      raw ",\"rec\":\"state\",\"entity\":";
      str entity;
      raw ",\"value\":";
      int value
  | Begin { txn; ts } ->
      raw ",\"rec\":\"begin\",\"txn\":";
      int txn;
      raw ",\"ts\":";
      int ts
  | Op { txn; entity; write; src } -> (
      raw ",\"rec\":\"op\",\"txn\":";
      int txn;
      raw ",\"entity\":";
      str entity;
      raw (if write then ",\"write\":true" else ",\"write\":false");
      match src with
      | None -> ()
      | Some From_init -> raw ",\"src\":\"init\""
      | Some From_self -> raw ",\"src\":\"self\""
      | Some (From_txn w) ->
          raw ",\"src\":";
          int w)
  | Install { txn; entity; value; wts } ->
      raw ",\"rec\":\"install\",\"txn\":";
      int txn;
      raw ",\"entity\":";
      str entity;
      raw ",\"value\":";
      int value;
      raw ",\"wts\":";
      int wts
  | Commit { txn } ->
      raw ",\"rec\":\"commit\",\"txn\":";
      int txn
  | Abort { txn; reason } ->
      raw ",\"rec\":\"abort\",\"txn\":";
      int txn;
      raw ",\"reason\":";
      str reason
  | Checkpoint { snapshot; commits } ->
      raw ",\"rec\":\"checkpoint\",\"snapshot\":";
      str snapshot;
      raw ",\"commits\":";
      int commits);
  let crc = body_crc s ~pos:0 ~len:!pos in
  raw ",\"crc\":";
  int crc;
  byte '}';
  Buffer.add_subbytes buf s 0 !pos

(* Canonical decoding: one pass over exactly the grammar [emit_line]
   writes — each record kind's keys in their fixed order, no whitespace,
   integers as [string_of_int] renders them, strings escaped as
   [put_str] escapes them — with the CRC taken over the line's own
   bytes. Anything else is rejected, so a line decodes iff it is
   byte-for-byte [encode ~lsn r] of the record it decodes to.

   The record is read in place, from a position inside a larger buffer:
   its end is where the grammar ends (the crc field closes the object),
   so no newline is searched for and no line is copied. Each key is
   checked together with the comma, quotes and colon around it as one
   literal, and the record kind is told by the first byte of its
   name. *)
exception Reject

let reject () = raise_notrace Reject

(* the input is [s.[pos] .. s.[stop - 1]]; [lsn] is the last framed
   record's LSN *)
type cursor = { s : string; stop : int; mutable pos : int; mutable lsn : int }

(* past the end reads as NUL, which no grammar position accepts *)
let[@inline] at c k = if k < c.stop then String.unsafe_get c.s k else '\000'

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* whether [x] comes next, consuming it if so: one bounds check for the
   whole literal, then eight bytes per compare (the last word may
   overlap the one before it) *)
let[@inline] skip c x =
  let l = String.length x and p = c.pos and s = c.s in
  p + l <= c.stop
  && (if l < 8 then begin
        let k = ref 0 in
        while !k < l && String.unsafe_get s (p + !k) = String.unsafe_get x !k do
          incr k
        done;
        !k = l
      end
      else begin
        let k = ref 0 in
        while !k < l - 8 && (get64u s (p + !k) : int64) = get64u x !k do
          k := !k + 8
        done;
        !k >= l - 8 && (get64u s (p + l - 8) : int64) = get64u x (l - 8)
      end)
  && (c.pos <- p + l; true)

let[@inline] lit c x = if not (skip c x) then reject ()

let[@inline] digit_at s stop k =
  if k < stop then
    match String.unsafe_get s k with
    | '0' .. '9' as ch -> Char.code ch - 48
    | _ -> -1
  else -1

let min_int_10 = min_int / 10

(* no '+', no leading zero, no "-0"; 19 digits reach min_int and max_int,
   so accumulate on the negative side and reject the digit that would
   step past the end of the range *)
let int c =
  let s = c.s and stop = c.stop in
  let neg = c.pos < stop && String.unsafe_get s c.pos = '-' in
  let p = ref (if neg then c.pos + 1 else c.pos) in
  let last = if neg then 4 (* of min_int *) else 3 (* of max_int *) in
  let d = digit_at s stop !p in
  if d < 0 || (neg && d = 0) then reject ();
  incr p;
  let acc = ref (-d) in
  if d > 0 then begin
    let d = ref (digit_at s stop !p) in
    while !d >= 0 do
      if !acc < min_int_10 || (!acc = min_int_10 && !d > last) then reject ();
      acc := (!acc * 10) - !d;
      incr p;
      d := digit_at s stop !p
    done
  end;
  c.pos <- !p;
  if neg then !acc else - !acc

(* past the bytes that stand for themselves inside a string: up to a
   quote, a backslash, a control byte or the end *)
let plain c =
  let s = c.s and stop = c.stop in
  let p = ref c.pos in
  while
    !p < stop
    &&
    let ch = String.unsafe_get s !p in
    ch >= ' ' && ch <> '"' && ch <> '\\'
  do
    incr p
  done;
  c.pos <- !p

let hex = function
  | '0' .. '9' as ch -> Char.code ch - 48
  | 'a' .. 'f' as ch -> Char.code ch - 87
  | _ -> reject ()

let escape c =
  let e = at c c.pos in
  c.pos <- c.pos + 1;
  match e with
  | '"' | '\\' -> e
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | 'u' ->
      (* lowercase hex, only for control bytes without a short form *)
      lit c "00";
      let code = (hex (at c c.pos) * 16) + hex (at c (c.pos + 1)) in
      c.pos <- c.pos + 2;
      if code >= 0x20 || code = 0x09 || code = 0x0a || code = 0x0d then
        reject ();
      Char.chr code
  | _ -> reject ()

let str c =
  lit c "\"";
  let start = c.pos in
  plain c;
  if skip c "\"" then String.sub c.s start (c.pos - 1 - start)
  else begin
    let b = Buffer.create 32 in
    Buffer.add_substring b c.s start (c.pos - start);
    while skip c "\\" do
      Buffer.add_char b (escape c);
      let from = c.pos in
      plain c;
      Buffer.add_substring b c.s from (c.pos - from)
    done;
    lit c "\"";
    Buffer.contents b
  end

(* the record after the rec key and the opening quote of its kind,
   told by the kind's first byte ([commit] and [checkpoint] by the
   second) *)
let record c =
  let kind = at c c.pos in
  c.pos <- c.pos + 1;
  match kind with
  | 's' ->
      lit c "tate\",\"entity\":";
      let entity = str c in
      lit c ",\"value\":";
      State { entity; value = int c }
  | 'b' ->
      lit c "egin\",\"txn\":";
      let txn = int c in
      lit c ",\"ts\":";
      Begin { txn; ts = int c }
  | 'o' ->
      lit c "p\",\"txn\":";
      let txn = int c in
      lit c ",\"entity\":";
      let entity = str c in
      if skip c ",\"write\":true" then
        Op { txn; entity; write = true; src = None }
      else begin
        lit c ",\"write\":false,\"src\":";
        let src =
          if skip c "\"init\"" then From_init
          else if skip c "\"self\"" then From_self
          else From_txn (int c)
        in
        Op { txn; entity; write = false; src = Some src }
      end
  | 'i' ->
      lit c "nstall\",\"txn\":";
      let txn = int c in
      lit c ",\"entity\":";
      let entity = str c in
      lit c ",\"value\":";
      let value = int c in
      lit c ",\"wts\":";
      Install { txn; entity; value; wts = int c }
  | 'c' ->
      if skip c "ommit\",\"txn\":" then Commit { txn = int c }
      else begin
        lit c "heckpoint\",\"snapshot\":";
        let snapshot = str c in
        lit c ",\"commits\":";
        Checkpoint { snapshot; commits = int c }
      end
  | 'a' ->
      lit c "bort\",\"txn\":";
      let txn = int c in
      lit c ",\"reason\":";
      Abort { txn; reason = str c }
  | _ -> reject ()

(* The framed record at [c.pos]: its LSN goes to [c.lsn], and [c.pos] is
   left just past its closing brace. *)
let framed c =
  let start = c.pos in
  lit c "{\"lsn\":";
  c.lsn <- int c;
  lit c ",\"rec\":\"";
  let r = record c in
  let body = c.pos in
  lit c ",\"crc\":";
  let crc = int c in
  lit c "}";
  if crc <> body_crc (Bytes.unsafe_of_string c.s) ~pos:start ~len:(body - start)
  then reject ();
  r

let decode_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Wal.decode_sub";
  let c = { s; stop = pos + len; pos; lsn = 0 } in
  match framed c with
  | r -> if c.pos = c.stop then Some (c.lsn, r) else None
  | exception Reject -> None

let decode line = decode_sub line ~pos:0 ~len:(String.length line)

let decode_prefix s ~pos =
  if pos < 0 || pos > String.length s then invalid_arg "Wal.decode_prefix";
  let c = { s; stop = String.length s; pos; lsn = 0 } in
  match framed c with
  | r -> Some (c.lsn, r, c.pos)
  | exception Reject -> None

(* whether [s.[i] .. s.[j - 1]] is whitespace only, as [String.trim]
   sees it *)
let rec blank s i j =
  i >= j
  ||
  match String.unsafe_get s i with
  | ' ' | '\t' | '\r' | '\012' | '\n' -> blank s (i + 1) j
  | _ -> false

(* A line is a record only if its newline follows the closing brace at
   once. A failed parse is the only case that searches for the newline:
   no strict prefix of a canonical line decodes and canonical lines hold
   no raw control byte, so the lines this accepts are exactly those a
   line splitter running [decode] would. The unterminated final line is
   left to the caller. *)
let scan s ~pos ~on_record ~on_skip =
  let n = String.length s in
  if pos < 0 || pos > n then invalid_arg "Wal.scan";
  let c = { s; stop = n; pos; lsn = 0 } in
  let rec line i =
    if i >= n then n
    else begin
      c.pos <- i;
      match
        let r = framed c in
        if c.pos >= n || String.unsafe_get s c.pos <> '\n' then reject ();
        r
      with
      | r ->
          on_record c.lsn r;
          line (c.pos + 1)
      | exception Reject -> (
          match String.index_from_opt s i '\n' with
          | None -> i
          | Some j ->
              if not (blank s i j) then on_skip ();
              line (j + 1))
    end
  in
  line pos

type window = { max_records : int option; max_commits : int option }

let window ?records ?commits () =
  let pos = function
    | Some k when k < 1 -> invalid_arg "Wal.window: thresholds must be >= 1"
    | x -> x
  in
  match (pos records, pos commits) with
  | (None, None) -> invalid_arg "Wal.window: at least one threshold"
  | (max_records, max_commits) -> { max_records; max_commits }

type boundary = { b_bytes : int; b_lsn : int; b_acked : int }

type writer = {
  buf : Buffer.t;
  scratch : Bytes.t ref;
  chan : out_channel option;
  win : window option;
  obs : Sink.t;
  mutable lsn : int;
  mutable closed : bool;
  mutable forced_bytes : int;
  mutable forced_lsn : int;
  mutable acked : int;
  mutable pend_records : int;
  mutable pend_commits : int;
  mutable n_forces : int;
  mutable boundaries_rev : boundary list;
}

let writer ?path ?window ?(obs = Sink.noop) () =
  {
    buf = Buffer.create 4096;
    scratch = ref (Bytes.create 256);
    chan = Option.map open_out path;
    win = window;
    obs;
    lsn = 0;
    closed = false;
    forced_bytes = 0;
    forced_lsn = 0;
    acked = 0;
    pend_records = 0;
    pend_commits = 0;
    n_forces = 0;
    boundaries_rev = [];
  }

let force w =
  if w.pend_records > 0 then begin
    (* pure accounting, like the engine's [?obs]: the bytes written are
       identical with or without a sink (a qcheck-pinned invariant) *)
    let sp = Sink.span_start w.obs "wal.force" in
    let batch_records = w.pend_records and batch_commits = w.pend_commits in
    let before = w.forced_bytes in
    let len = Buffer.length w.buf in
    Option.iter
      (fun oc ->
        (* the simulated fsync: the batch reaches the disk image here
           and nowhere else *)
        output_string oc (Buffer.sub w.buf w.forced_bytes (len - w.forced_bytes));
        flush oc)
      w.chan;
    w.forced_bytes <- len;
    w.forced_lsn <- w.lsn;
    w.acked <- w.acked + w.pend_commits;
    w.pend_records <- 0;
    w.pend_commits <- 0;
    w.n_forces <- w.n_forces + 1;
    w.boundaries_rev <-
      { b_bytes = len; b_lsn = w.lsn; b_acked = w.acked } :: w.boundaries_rev;
    Sink.incr w.obs "wal.forces";
    Sink.set_gauge w.obs "wal.force-boundary-lsn" w.lsn;
    Sink.set_gauge w.obs "wal.forced-bytes" w.forced_bytes;
    Sink.set_gauge w.obs "wal.acked-commits" w.acked;
    Sink.span_finish w.obs sp ~attrs:(fun () ->
        [
          ("force_boundary", Json.Int w.lsn);
          ("records", Json.Int batch_records);
          ("commits", Json.Int batch_commits);
          ("bytes", Json.Int (len - before));
          ("acked", Json.Int w.acked);
        ])
  end

let append w r =
  let lsn = w.lsn in
  emit_line ~scratch:w.scratch w.buf ~lsn r;
  Buffer.add_char w.buf '\n';
  w.lsn <- lsn + 1;
  w.pend_records <- w.pend_records + 1;
  (match r with Commit _ -> w.pend_commits <- w.pend_commits + 1 | _ -> ());
  Sink.incr w.obs "wal.appends";
  Sink.span_event w.obs "wal.append" ~attrs:(fun () ->
      [ ("lsn", Json.Int lsn) ]);
  (match w.win with
  | None -> force w
  | Some { max_records; max_commits } ->
      if
        (match max_records with Some k -> w.pend_records >= k | None -> false)
        || match max_commits with
           | Some k -> w.pend_commits >= k
           | None -> false
      then force w);
  lsn

let next_lsn w = w.lsn
let contents w = Buffer.contents w.buf
let forced_bytes w = w.forced_bytes
let forced_lsn w = w.forced_lsn
let acked_commits w = w.acked
let forces w = w.n_forces
let force_boundaries w = List.rev w.boundaries_rev
let durable_contents w = Buffer.sub w.buf 0 w.forced_bytes

let close w =
  if not w.closed then begin
    (* the open batch flushes exactly once: [closed] guards the force *)
    force w;
    w.closed <- true;
    Option.iter close_out w.chan
  end

type read = { records : (int * record) list; stats : Mvcc_obs.Jsonl.stats }

(* the one log scanner, as the follower runs it; at the end of the
   input an unterminated line that decodes is a record whose newline was
   cut, and one that does not is a torn tail *)
let read_string s =
  let records = ref [] and skipped = ref 0 in
  let tail =
    scan s ~pos:0
      ~on_record:(fun lsn r -> records := (lsn, r) :: !records)
      ~on_skip:(fun () -> incr skipped)
  in
  let n = String.length s in
  let torn_tail =
    match decode_prefix s ~pos:tail with
    | Some (lsn, r, stop) when stop = n ->
        records := (lsn, r) :: !records;
        false
    | _ -> not (blank s tail n)
  in
  {
    records = List.rev !records;
    stats = { Mvcc_obs.Jsonl.skipped = !skipped; torn_tail };
  }

let read_file path =
  read_string (In_channel.with_open_bin path In_channel.input_all)
