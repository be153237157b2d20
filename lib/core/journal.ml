let magic = "LQJRNL1\n"
let format_version = 2

type header = { seed : int; engine : string; config : string }

type sync = Always | Batch | Off

let sync_to_string = function
  | Always -> "always"
  | Batch -> "batch"
  | Off -> "off"

let sync_of_string = function
  | "always" -> Some Always
  | "batch" -> Some Batch
  | "off" -> Some Off
  | _ -> None

(* A checkpoint snapshots the whole session accumulator — counters, the set
   of already-answered item keys, and an engine-encoded state string — so
   resume replays from here instead of record zero, and compaction can
   truncate everything behind it. *)
type checkpoint = {
  ck_qid : int;
  ck_questions : int;
  ck_pruned : int;
  ck_refused : int;
  ck_answered : string list;  (** item keys already answered, oldest first *)
  ck_state : string;  (** engine-encoded accumulator (opaque here) *)
}

type event =
  | Asked of string
  | Answered of string * Flaky.reply
  | Checkpoint of checkpoint
  | Completed

exception Io of Error.t

(* Group commit: in [Batch] mode appends accumulate in [pending] and are
   written + fsync'd together once [batch_records] records (or a session
   milestone — [Completed], a checkpoint, [close]) force a flush.  One fsync
   then covers the whole group, which is what rescues small sessions from
   paying the ~300µs fsync per answer that BENCH_PR2 exposed. *)
let batch_records = 8

type t = {
  vfs : Vfs.t;
  path : string;
  mutable fh : Vfs.fh;  (* swapped by [compact] *)
  sync : sync;
  lock_path : string;
  header : header option;
  pending : Buffer.t;
  mutable pending_records : int;
  mutable good_bytes : int;  (* offset just past the last durable-intent frame *)
  mutable broken : bool;  (* a write failure we could not truncate away *)
  mutable closed : bool;
}

(* Telemetry: record/byte counters and the fsync latency histogram the
   BENCH_PR2 regression was blind to. *)
let m_records = Telemetry.Metrics.counter "learnq.journal.records"
let m_bytes = Telemetry.Metrics.counter "learnq.journal.bytes"
let m_fsyncs = Telemetry.Metrics.counter "learnq.journal.fsyncs"
let m_fsync_s = Telemetry.Metrics.histogram "learnq.journal.fsync_s"
let m_checkpoints = Telemetry.Metrics.counter "learnq.journal.checkpoints"
let m_compactions = Telemetry.Metrics.counter "learnq.journal.compactions"

(* ------------------------------------------------------------------ *)
(* CRC-32 (polynomial 0xEDB88320, the zlib/PNG one)                    *)
(* ------------------------------------------------------------------ *)

(* Built eagerly: a lazy table forced for the first time by two domains at
   once (the daemon recovers journals on a pool) raises
   [CamlinternalLazy.Undefined]. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Payload encoding                                                    *)
(* ------------------------------------------------------------------ *)

(* One tag byte, then the encoded item.  The header packs its fields with
   NUL separators (items and configs are produced by this code base and
   never contain NUL).  Since the telemetry PR the header records the fsync
   policy as a trailing "sync=…" field, and since the storage PR a trailing
   "v=2" format-version field; older journals simply lack them and decode
   with [sync = Always] / version 1.  Version 1 journals (no checkpoints)
   still resume — the version stamp exists so future readers can refuse
   formats they genuinely cannot parse, not to lock out the past. *)

let encode_header h ~sync =
  Printf.sprintf "H%d\x00%s\x00%s\x00sync=%s\x00v=%d" h.seed h.engine h.config
    (sync_to_string sync) format_version

let decode_header payload =
  (* payload starts after the 'H' tag *)
  match String.split_on_char '\x00' payload with
  | seed :: engine :: rest -> (
      match int_of_string_opt seed with
      | Some seed ->
          (* Trailing self-describing fields are peeled off the reversed
             field list; whatever remains is the free-form config. *)
          let peel key l =
            let klen = String.length key in
            match l with
            | last :: front
              when String.length last > klen && String.sub last 0 klen = key
              ->
                Some (String.sub last klen (String.length last - klen), front)
            | _ -> None
          in
          let rev = List.rev rest in
          let version, rev =
            match peel "v=" rev with
            | Some (v, front) ->
                (Option.value ~default:1 (int_of_string_opt v), front)
            | None -> (1, rev)
          in
          let sync, rev =
            match peel "sync=" rev with
            | Some (s, front) ->
                (Option.value ~default:Always (sync_of_string s), front)
            | None -> (Always, rev)
          in
          Some
            ( { seed; engine; config = String.concat "\x00" (List.rev rev) },
              sync,
              version )
      | None -> None)
  | _ -> None

(* Checkpoint payload: NUL-separated counters, then a count-prefixed list
   of answered keys, then the engine state as the final field — last so the
   state may itself contain NULs (engine codecs pack fields with them). *)
let encode_checkpoint ck =
  let buf = Buffer.create (256 + String.length ck.ck_state) in
  Buffer.add_char buf 'K';
  Buffer.add_string buf
    (Printf.sprintf "%d\x00%d\x00%d\x00%d\x00%d" ck.ck_qid ck.ck_questions
       ck.ck_pruned ck.ck_refused
       (List.length ck.ck_answered));
  List.iter
    (fun key ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf key)
    ck.ck_answered;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf ck.ck_state;
  Buffer.contents buf

let rec split_at k xs =
  if k = 0 then Some ([], xs)
  else
    match xs with
    | x :: tl ->
        Option.map (fun (a, b) -> (x :: a, b)) (split_at (k - 1) tl)
    | [] -> None

let decode_checkpoint payload =
  match String.split_on_char '\x00' payload with
  | qid :: questions :: pruned :: refused :: n :: rest -> (
      match
        ( int_of_string_opt qid,
          int_of_string_opt questions,
          int_of_string_opt pruned,
          int_of_string_opt refused,
          int_of_string_opt n )
      with
      | Some ck_qid, Some ck_questions, Some ck_pruned, Some ck_refused, Some n
        when n >= 0 -> (
          match split_at n rest with
          | Some (ck_answered, state_fields) ->
              Some
                {
                  ck_qid;
                  ck_questions;
                  ck_pruned;
                  ck_refused;
                  ck_answered;
                  ck_state = String.concat "\x00" state_fields;
                }
          | None -> None)
      | _ -> None)
  | _ -> None

let encode_event = function
  | Asked item -> "?" ^ item
  | Answered (item, Flaky.Label true) -> "+" ^ item
  | Answered (item, Flaky.Label false) -> "-" ^ item
  | Answered (item, Flaky.Refused) -> "R" ^ item
  | Answered (item, Flaky.Timed_out) -> "T" ^ item
  | Checkpoint ck -> encode_checkpoint ck
  | Completed -> "C"

let decode_event payload =
  if payload = "" then None
  else
    let rest () = String.sub payload 1 (String.length payload - 1) in
    match payload.[0] with
    | '?' -> Some (Asked (rest ()))
    | '+' -> Some (Answered (rest (), Flaky.Label true))
    | '-' -> Some (Answered (rest (), Flaky.Label false))
    | 'R' -> Some (Answered (rest (), Flaky.Refused))
    | 'T' -> Some (Answered (rest (), Flaky.Timed_out))
    | 'K' -> Option.map (fun ck -> Checkpoint ck) (decode_checkpoint (rest ()))
    | 'C' when String.length payload = 1 -> Some Completed
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)
(* ------------------------------------------------------------------ *)

let put_le32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_le32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  put_le32 buf (String.length payload);
  put_le32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let fsync_timed t =
  (* A span in the default mode too: a stalled fsync must be findable from
     the flight-recorder dump alone, stamped with the trace of the request
     that paid for it. *)
  Telemetry.with_span ~detail:t.path "journal.fsync" (fun () ->
      if Telemetry.enabled () then begin
        let t0 = Monotonic.now () in
        Vfs.fsync t.vfs t.fh;
        Telemetry.Metrics.observe m_fsync_s (Monotonic.now () -. t0);
        Telemetry.Metrics.incr m_fsyncs
      end
      else Vfs.fsync t.vfs t.fh)

(* Every write funnels through here.  On a storage failure the file may
   hold a torn frame mid-write; truncating back to [good_bytes] restores a
   clean prefix so the journal stays usable (the caller retries the append
   once the disk recovers — ENOSPC is transient).  If even the truncation
   fails, the journal is [broken]: further writes are refused, which keeps
   the tear at the physical tail where recovery treats it as truncation. *)
let io_guard t ~op f =
  if t.broken then
    raise
      (Io
         (Error.storage ~op ~path:t.path
            "journal disabled by an earlier storage failure"));
  try f ()
  with Unix.Unix_error (err, _, _) ->
    (try Vfs.ftruncate t.vfs t.fh t.good_bytes
     with Unix.Unix_error _ | Invalid_argument _ -> t.broken <- true);
    raise (Io (Error.storage_of_unix ~op ~path:t.path err))

(* ------------------------------------------------------------------ *)
(* Writer mutual exclusion                                             *)
(* ------------------------------------------------------------------ *)

(* Two writers appending to one journal interleave frames into corruption
   that [recover] can only report, not repair.  A sidecar lock file taken
   atomically (and always holding the owner's identity) makes the second
   opener lose with a typed error instead.  A lock whose recorded holder is
   dead is the residue of a crash — SIGKILL runs no cleanup — and is stolen
   silently, which is what lets a restarted daemon resume the very journals
   its predecessor died holding.

   Identity is [pid:starttime], not a bare pid: pids are recycled, so "a
   process with that pid is alive" does not mean "the holder is alive".
   The starttime (field 22 of /proc/<pid>/stat, in clock ticks since boot)
   disambiguates — same pid, different starttime means the holder died and
   its pid was reborn as an unrelated process, so the lock is stale and is
   stolen.  When stamps are unavailable (no /proc, old-format bare-pid
   lock) and the pid is alive we refuse to steal: corrupting a live
   journal is worse than making an operator delete a stale lock. *)

let lock_path_of path = path ^ ".lock"

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true (* EPERM: alive, not ours *)

let starttime_of_pid pid =
  let stat = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_bin stat In_channel.input_all with
  | exception Sys_error _ -> None
  | content -> (
      (* comm (field 2) is parenthesized and may contain spaces; fields
         resume after the last ')'.  starttime is field 22, i.e. index 19
         of the space-split remainder (which starts at field 3). *)
      match String.rindex_opt content ')' with
      | Some i when String.length content > i + 2 ->
          let rest =
            String.sub content (i + 2) (String.length content - i - 2)
          in
          List.nth_opt (String.split_on_char ' ' rest) 19
      | _ -> None)

let lock_stamp () =
  let pid = Unix.getpid () in
  match starttime_of_pid pid with
  | Some s -> Printf.sprintf "%d:%s" pid s
  | None -> string_of_int pid

let read_lock lock_path =
  match In_channel.with_open_bin lock_path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
      let contents = String.trim contents in
      match String.index_opt contents ':' with
      | None ->
          Option.map (fun pid -> (pid, None)) (int_of_string_opt contents)
      | Some i ->
          Option.map
            (fun pid ->
              ( pid,
                Some (String.sub contents (i + 1) (String.length contents - i - 1))
              ))
            (int_of_string_opt (String.sub contents 0 i)))

let read_lock_pid lock_path = Option.map fst (read_lock lock_path)

let acquire_lock vfs path =
  let lock_path = lock_path_of path in
  (* The stamp is written to a private temp file which is then [link(2)]ed
     into place (atomic, fails with EEXIST if held): the lock file can
     never be observed without its stamp, so a rival reading it cannot
     misclassify a live lock as torn and steal it mid-creation. *)
  let try_take () =
    let tmp = Printf.sprintf "%s.%d.tmp" lock_path (Unix.getpid ()) in
    let fh = Vfs.openf ~trunc:true vfs tmp in
    (try Vfs.append vfs fh (lock_stamp ())
     with e ->
       Vfs.close vfs fh;
       (try Vfs.unlink vfs tmp with Unix.Unix_error _ -> ());
       raise e);
    Vfs.close vfs fh;
    let r =
      match Vfs.link vfs tmp lock_path with
      | () -> `Taken
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> `Held
    in
    (try Vfs.unlink vfs tmp with Unix.Unix_error _ -> ());
    r
  in
  let rec go attempts =
    if attempts = 0 then
      (* Steal races resolve in one retry; give up rather than spin. *)
      Error
        (Error.journal_locked ~path
           ~pid:(Option.value ~default:0 (read_lock_pid lock_path)))
    else
      match try_take () with
      | `Taken -> Ok lock_path
      | `Held -> (
          match read_lock lock_path with
          | Some (pid, stamp) when pid_alive pid -> (
              match (stamp, starttime_of_pid pid) with
              | Some recorded, Some current
                when not (String.equal recorded current) ->
                  (* Pid reuse: the recorded holder died and its pid came
                     back as an unrelated process.  The lock is stale. *)
                  (try Vfs.unlink vfs lock_path with Unix.Unix_error _ -> ());
                  go (attempts - 1)
              | _ ->
                  (* Alive and not provably recycled — including when only
                     the pid matches because stamps are unavailable. *)
                  Error (Error.journal_locked ~path ~pid))
          | Some _ ->
              (* Dead holder: the residue of a crash, steal it.  If a rival
                 steals first we lose the link(2) race on the next attempt
                 and report the (now live) holder. *)
              (try Vfs.unlink vfs lock_path with Unix.Unix_error _ -> ());
              go (attempts - 1)
          | None ->
              (* The lock vanished between the EEXIST and the read (the
                 holder released it): retry without stealing anything. *)
              go (attempts - 1))
  in
  match go 2 with
  | r -> r
  | exception Unix.Unix_error (err, _, _) ->
      Error (Error.storage_of_unix ~op:"lock" ~path err)

let release_lock t =
  try Vfs.unlink t.vfs t.lock_path with Unix.Unix_error _ -> ()

(* Write out (and, unless the policy is [Off], fsync) everything pending.
   The buffer is cleared only after the group is safely down: a storage
   failure leaves it intact for a retry once the disk recovers. *)
let flush t =
  if Buffer.length t.pending > 0 then
    io_guard t ~op:"flush" (fun () ->
        let s = Buffer.contents t.pending in
        Vfs.append t.vfs t.fh s;
        if t.sync <> Off then fsync_timed t;
        t.good_bytes <- t.good_bytes + String.length s;
        Buffer.clear t.pending;
        t.pending_records <- 0)

let append_raw t s =
  if t.closed then invalid_arg "Journal.append: journal is closed";
  Telemetry.Metrics.incr m_bytes ~by:(String.length s);
  match t.sync with
  | Always ->
      io_guard t ~op:"append" (fun () ->
          Vfs.append t.vfs t.fh s;
          fsync_timed t;
          t.good_bytes <- t.good_bytes + String.length s)
  | Off ->
      io_guard t ~op:"append" (fun () ->
          Vfs.append t.vfs t.fh s;
          t.good_bytes <- t.good_bytes + String.length s)
  | Batch ->
      Buffer.add_string t.pending s;
      t.pending_records <- t.pending_records + 1;
      if t.pending_records >= batch_records then flush t

let append t event =
  Telemetry.Metrics.incr m_records;
  append_raw t (frame (encode_event event));
  (* A completed session or a checkpoint is a durability milestone: close
     the group. *)
  match event with
  | Completed | Checkpoint _ -> flush t
  | Asked _ | Answered _ -> ()

let append_checkpoint t ck =
  Telemetry.Metrics.incr m_checkpoints;
  append t (Checkpoint ck)

let create_result ?(sync = Always) ?(vfs = Vfs.real) ~path header =
  (* Lock before truncating: losing the race must not destroy the winner's
     live journal. *)
  match acquire_lock vfs path with
  | Error e -> Error e
  | Ok lock_path -> (
      let attempt () =
        let fh = Vfs.openf ~trunc:true vfs path in
        try
          let hbytes = magic ^ frame (encode_header header ~sync) in
          (* The header must be durable before any event is: resume depends
             on it.  Write it through directly even in Batch mode. *)
          Vfs.append vfs fh hbytes;
          if sync <> Off then Vfs.fsync vfs fh;
          (fh, String.length hbytes)
        with e ->
          Vfs.close vfs fh;
          (try Vfs.unlink vfs path with Unix.Unix_error _ -> ());
          raise e
      in
      match attempt () with
      | exception Unix.Unix_error (err, _, _) ->
          (try Vfs.unlink vfs lock_path with Unix.Unix_error _ -> ());
          Error (Error.storage_of_unix ~op:"create" ~path err)
      | fh, good_bytes ->
          Ok
            {
              vfs;
              path;
              fh;
              sync;
              lock_path;
              header = Some header;
              pending = Buffer.create 256;
              pending_records = 0;
              good_bytes;
              broken = false;
              closed = false;
            })

let create ?sync ?vfs ~path header =
  match create_result ?sync ?vfs ~path header with
  | Ok t -> t
  | Error e -> invalid_arg ("Journal.create: " ^ Error.to_string e)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Fun.protect
      ~finally:(fun () ->
        Vfs.close t.vfs t.fh;
        release_lock t)
      (fun () -> if not t.broken then flush t)
  end

let abort t =
  if not t.closed then begin
    (* Simulated crash: pending [Batch] records are dropped, nothing is
       flushed — the file keeps only what a real crash would have kept.  The
       lock is released because it belongs to this (still live) process; a
       real crash leaves it stale and the next opener steals it. *)
    Buffer.clear t.pending;
    t.pending_records <- 0;
    t.closed <- true;
    Vfs.close t.vfs t.fh;
    release_lock t
  end

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovered = {
  header : header option;
  recorded_sync : sync;
  version : int;
  events : event list;
  valid_bytes : int;
  dropped_bytes : int;
}

let parse ~source input =
  let len = String.length input in
  let magic_len = String.length magic in
  let prefix_of_magic =
    len < magic_len && String.equal input (String.sub magic 0 len)
  in
  if prefix_of_magic then
    (* The crash happened while the very first write was in flight. *)
    Ok
      {
        header = None;
        recorded_sync = Always;
        version = format_version;
        events = [];
        valid_bytes = 0;
        dropped_bytes = len;
      }
  else if len < magic_len || not (String.equal (String.sub input 0 magic_len) magic)
  then
    Error
      (Error.parse_error ~source:"journal"
         (Printf.sprintf "%s is not a learnq session journal" source))
  else
    let rec records pos header rsync version events =
      let finish dropped =
        Ok
          {
            header;
            recorded_sync = rsync;
            version;
            events = List.rev events;
            valid_bytes = pos;
            dropped_bytes = dropped;
          }
      in
      if len - pos < 8 then finish (len - pos)
      else
        let plen = get_le32 input pos in
        let crc = get_le32 input (pos + 4) in
        if plen < 0 || pos + 8 + plen > len then
          (* Torn tail: the length prefix promises more bytes than exist.
             (An in-place corruption of the length field is indistinguishable
             from a torn write, so it too is treated as truncation.) *)
          finish (len - pos)
        else
          let payload = String.sub input (pos + 8) plen in
          if crc32 payload <> crc then
            Error
              (Error.corrupt_journal ~path:source ~offset:pos
                 "record checksum mismatch")
          else
            let next = pos + 8 + plen in
            if plen > 0 && payload.[0] = 'H' then
              match decode_header (String.sub payload 1 (plen - 1)) with
              | Some (h, s, v) when pos = magic_len && header = None ->
                  records next (Some h) s v events
              | Some _ ->
                  Error
                    (Error.corrupt_journal ~path:source ~offset:pos
                       "unexpected header record")
              | None ->
                  Error
                    (Error.corrupt_journal ~path:source ~offset:pos
                       "undecodable header record")
            else begin
              match decode_event payload with
              | Some ev -> records next header rsync version (ev :: events)
              | None ->
                  Error
                    (Error.corrupt_journal ~path:source ~offset:pos
                       "undecodable record payload")
            end
    in
    records magic_len None Always 1 []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let recover ~path =
  match read_file path with
  | exception Sys_error msg ->
      Error (Error.invalid_input ~what:"--journal" msg)
  | input -> parse ~source:path input

let resume ?sync ?(vfs = Vfs.real) ~path () =
  (* Lock before reading: recovering under the lock means [valid_bytes] is
     still accurate when the torn tail is truncated away below — a rival
     writer can't append between the read and the ftruncate. *)
  match acquire_lock vfs path with
  | Error e -> Error e
  | Ok lock_path -> (
      let fail e =
        (try Vfs.unlink vfs lock_path with Unix.Unix_error _ -> ());
        Error e
      in
      match recover ~path with
      | Error e -> fail e
      | Ok r -> (
          match r.header with
          | None ->
              fail
                (Error.invalid_input ~what:"--journal"
                   (path ^ " has no intact header record; nothing to resume"))
          | Some h -> (
              (* Continue under the recorded policy unless the caller
                 overrides. *)
              let sync = Option.value ~default:r.recorded_sync sync in
              match
                let fh = Vfs.openf vfs path in
                (try Vfs.ftruncate vfs fh r.valid_bytes
                 with e ->
                   Vfs.close vfs fh;
                   raise e);
                fh
              with
              | exception Unix.Unix_error (err, _, _) ->
                  fail (Error.storage_of_unix ~op:"resume" ~path err)
              | fh ->
                  Ok
                    ( {
                        vfs;
                        path;
                        fh;
                        sync;
                        lock_path;
                        header = Some h;
                        pending = Buffer.create 256;
                        pending_records = 0;
                        good_bytes = r.valid_bytes;
                        broken = false;
                        closed = false;
                      },
                      r ))))

let answered r =
  List.filter_map
    (function Answered (item, reply) -> Some (item, reply) | _ -> None)
    r.events

(* The last checkpoint (if any) and the events that follow it: what a
   resuming session restores and then replays.  Events before the last
   checkpoint are superseded by it. *)
let split_checkpoint events =
  let rec go ck tail = function
    | [] -> (ck, List.rev tail)
    | Checkpoint c :: rest -> go (Some c) [] rest
    | ev :: rest -> go ck (ev :: tail) rest
  in
  go None [] events

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

(* Atomic write-aside + rename: the new journal (header + one checkpoint
   subsuming all history) is built at [path ^ ".compact"], fsync'd, and
   renamed over [path].  The old journal stays intact until the rename —
   a crash at any point leaves either the full old journal or the full new
   one, never a hybrid.  The caller's contract: [ck] must reflect every
   event already appended (including any still buffered), because both the
   on-disk history and the pending buffer are discarded in its favor. *)
let compact t ck =
  if t.closed then invalid_arg "Journal.compact: journal is closed";
  match t.header with
  | None ->
      Error
        (Error.storage ~op:"compact" ~path:t.path
           "journal has no header; cannot rewrite")
  | Some h -> (
      let aside = t.path ^ ".compact" in
      let attempt () =
        let fh = Vfs.openf ~trunc:true t.vfs aside in
        try
          let bytes =
            magic
            ^ frame (encode_header h ~sync:t.sync)
            ^ frame (encode_event (Checkpoint ck))
          in
          Vfs.append t.vfs fh bytes;
          Vfs.fsync t.vfs fh;
          Vfs.rename t.vfs aside t.path;
          (fh, String.length bytes)
        with e ->
          Vfs.close t.vfs fh;
          (try Vfs.unlink t.vfs aside with Unix.Unix_error _ | Sys_error _ -> ());
          raise e
      in
      match attempt () with
      | exception Unix.Unix_error (err, _, _) ->
          Error (Error.storage_of_unix ~op:"compact" ~path:t.path err)
      | fh, good_bytes ->
          (* The old descriptor now names an unlinked inode; swap in the
             new one.  Pending records are subsumed by the checkpoint. *)
          Vfs.close t.vfs t.fh;
          t.fh <- fh;
          t.good_bytes <- good_bytes;
          t.broken <- false;
          Buffer.clear t.pending;
          t.pending_records <- 0;
          Telemetry.Recorder.record ~detail:t.path "journal.compact";
          Telemetry.Metrics.incr m_compactions;
          Ok ())
