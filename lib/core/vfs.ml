(* A narrow file-I/O seam under Journal and the registry's lock dance.
   [real] is a passthrough to Unix.  [faulty] injects, with seeded
   probabilities from a {!Flaky.disk} plan, the failure modes real disks
   exhibit and PR2/PR6's crash-safety work never met: ENOSPC, EIO, short
   writes, fsyncs that lie, and — at the crash itself — torn multi-byte
   writes.

   The faulty backend operates on real files in a real directory (tests and
   the chaos bench hand it a temp dir) and tracks, per path, how many bytes
   are *written* vs *durable*.  [fsync] normally promotes written to durable
   (with probability [lying_fsync] it reports success without promoting);
   [crash] then truncates every file back to its durable length — except
   that with probability [torn] it keeps a fuzzed strict prefix of the lost
   tail instead, modeling a sector-level tear of an in-flight multi-byte
   write.  Recovery code on top must treat whatever survives as a real
   post-crash image.

   Every injected fault is logged; the chaos gates use the log to check
   that each quarantined journal traces back to an injected fault and never
   to a bug in the recovery path itself. *)

type fault_kind =
  | Enospc
  | Eio
  | Short_write of int  (** bytes that made it before the error *)
  | Lying_fsync
  | Torn of int  (** bytes of unfsynced tail kept by the crash *)

type fault = { f_path : string; f_op : string; f_kind : fault_kind }

let kind_to_string = function
  | Enospc -> "enospc"
  | Eio -> "eio"
  | Short_write n -> Printf.sprintf "short-write:%d" n
  | Lying_fsync -> "lying-fsync"
  | Torn n -> Printf.sprintf "torn:%d" n

let fault_to_string f =
  Printf.sprintf "%s(%s) on %s" f.f_op (kind_to_string f.f_kind) f.f_path

type faulty = {
  seed : int;
  disk : Flaky.disk;
  streams : (string, Prng.t) Hashtbl.t;  (* path -> its own fault stream *)
  mutable full : bool;  (* scripted ENOSPC: every allocation refused *)
  mutable stall_s : float;  (* scripted latency: every fsync sleeps this *)
  written : (string, int) Hashtbl.t;  (* path -> bytes the app wrote *)
  durable : (string, int) Hashtbl.t;  (* path -> bytes that survive a crash *)
  mutable log : fault list;  (* newest first *)
  m : Mutex.t;
}

type t = Real | Faulty of faulty

type fh = {
  fh_path : string;
  fh_fd : Unix.file_descr;
  mutable fh_closed : bool;
}

let real = Real

let faulty ?(seed = 0) disk =
  Faulty
    {
      seed;
      disk;
      streams = Hashtbl.create 16;
      full = false;
      stall_s = 0.;
      written = Hashtbl.create 16;
      durable = Hashtbl.create 16;
      log = [];
      m = Mutex.create ();
    }

let locked st f =
  Mutex.lock st.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.m) f

(* Each file draws its faults from its own stream, so what one file
   suffers does not depend on how domains interleave their work on other
   files.  The stream is seeded by the file's name without what differs
   between runs: the directory, and the pid in the lock dance's
   [<journal>.lock.<pid>.tmp].  Called under the lock. *)
let stream st path =
  match Hashtbl.find_opt st.streams path with
  | Some g -> g
  | None ->
      let pid = Printf.sprintf ".%d.tmp" (Unix.getpid ()) in
      let name = Filename.basename path in
      let name =
        if String.ends_with ~suffix:pid name then
          Filename.chop_suffix name pid ^ ".tmp"
        else name
      in
      let g = Prng.create (st.seed lxor Hashtbl.hash name) in
      Hashtbl.add st.streams path g;
      g

let note st path op kind =
  let f = { f_path = path; f_op = op; f_kind = kind } in
  st.log <- f :: st.log;
  (* Flight-recorder breadcrumb: when a request later shows up slow or a
     journal quarantined, the injected fault is visible in the same dump,
     stamped with the request's trace id. *)
  Telemetry.Recorder.record ~detail:(fault_to_string f) "vfs.fault"

let faults = function
  | Real -> []
  | Faulty st -> locked st (fun () -> List.rev st.log)

let fault_count = function
  | Real -> 0
  | Faulty st -> locked st (fun () -> List.length st.log)

let set_full t full =
  match t with
  | Real -> ()
  | Faulty st -> locked st (fun () -> st.full <- full)

let set_stall t s =
  match t with
  | Real -> ()
  | Faulty st -> locked st (fun () -> st.stall_s <- Float.max 0. s)

(* ------------------------------------------------------------------ *)
(* Write-side operations (where faults live)                           *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let openf ?(trunc = false) t path =
  (match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          (* Creating a directory entry needs space; appending to an
             existing file is refused per-write in [append] instead. *)
          if st.full && not (Sys.file_exists path) then begin
            note st path "open" Enospc;
            raise (Unix.Unix_error (Unix.ENOSPC, "open", path))
          end));
  let flags =
    Unix.O_WRONLY :: Unix.O_CREAT :: (if trunc then [ Unix.O_TRUNC ] else [])
  in
  let fd = Unix.openfile path flags 0o644 in
  let len = if trunc then 0 else (Unix.fstat fd).st_size in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  (match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          (* Bytes that predate this open already survived at least one
             close/crash boundary: count them durable. *)
          Hashtbl.replace st.written path len;
          Hashtbl.replace st.durable path len));
  { fh_path = path; fh_fd = fd; fh_closed = false }

let append t fh s =
  if fh.fh_closed then invalid_arg "Vfs.append: closed handle";
  if s = "" then ()
  else
    match t with
    | Real -> write_all fh.fh_fd s
    | Faulty st -> (
        let verdict =
          locked st (fun () ->
              let d = st.disk and rng = stream st fh.fh_path in
              if st.full then begin
                note st fh.fh_path "append" Enospc;
                `Fail Unix.ENOSPC
              end
              else if Prng.chance rng d.enospc then begin
                note st fh.fh_path "append" Enospc;
                `Fail Unix.ENOSPC
              end
              else if Prng.chance rng d.eio then begin
                note st fh.fh_path "append" Eio;
                `Fail Unix.EIO
              end
              else if String.length s > 1 && Prng.chance rng d.short_write
              then begin
                let n = Prng.int_in rng 1 (String.length s - 1) in
                note st fh.fh_path "append" (Short_write n);
                `Short n
              end
              else `Write)
        in
        match verdict with
        | `Fail err -> raise (Unix.Unix_error (err, "write", fh.fh_path))
        | `Short n ->
            (* The disk took a prefix, then ran out: the file really does
               hold the torn bytes, exactly what recovery must cope with. *)
            write_all fh.fh_fd (String.sub s 0 n);
            locked st (fun () ->
                let cur =
                  Option.value ~default:0 (Hashtbl.find_opt st.written fh.fh_path)
                in
                Hashtbl.replace st.written fh.fh_path (cur + n));
            raise (Unix.Unix_error (Unix.ENOSPC, "write", fh.fh_path))
        | `Write ->
            write_all fh.fh_fd s;
            locked st (fun () ->
                let cur =
                  Option.value ~default:0 (Hashtbl.find_opt st.written fh.fh_path)
                in
                Hashtbl.replace st.written fh.fh_path (cur + String.length s)))

let fsync t fh =
  if fh.fh_closed then invalid_arg "Vfs.fsync: closed handle";
  (match t with
  | Real -> ()
  | Faulty st ->
      (* Scripted stall: the sleep happens outside the state lock so other
         handles keep working — only this fsync (and its request) drags. *)
      let stall = locked st (fun () -> st.stall_s) in
      if stall > 0. then begin
        Telemetry.Recorder.record
          ~detail:(Printf.sprintf "%s %.3fs" fh.fh_path stall)
          "vfs.stall";
        Unix.sleepf stall
      end);
  Unix.fsync fh.fh_fd;
  match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          if Prng.chance (stream st fh.fh_path) st.disk.lying_fsync then
            (* The drive acked the barrier without writing through: the
               caller believes these bytes are safe; [crash] will drop
               them anyway. *)
            note st fh.fh_path "fsync" Lying_fsync
          else
            match Hashtbl.find_opt st.written fh.fh_path with
            | Some l -> Hashtbl.replace st.durable fh.fh_path l
            | None -> ())

let ftruncate t fh n =
  if fh.fh_closed then invalid_arg "Vfs.ftruncate: closed handle";
  Unix.ftruncate fh.fh_fd n;
  ignore (Unix.lseek fh.fh_fd 0 Unix.SEEK_END);
  match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          Hashtbl.replace st.written fh.fh_path n;
          match Hashtbl.find_opt st.durable fh.fh_path with
          | Some d when d > n -> Hashtbl.replace st.durable fh.fh_path n
          | _ -> ())

let close _t fh =
  if not fh.fh_closed then begin
    fh.fh_closed <- true;
    Unix.close fh.fh_fd
  end

(* ------------------------------------------------------------------ *)
(* Metadata operations                                                 *)
(* ------------------------------------------------------------------ *)

let link t src dst =
  (match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          if st.full then begin
            note st dst "link" Enospc;
            raise (Unix.Unix_error (Unix.ENOSPC, "link", dst))
          end));
  Unix.link src dst

let rename t src dst =
  Unix.rename src dst;
  match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          let move tbl =
            (match Hashtbl.find_opt tbl src with
            | Some l ->
                Hashtbl.replace tbl dst l;
                Hashtbl.remove tbl src
            | None -> Hashtbl.remove tbl dst)
          in
          move st.written;
          move st.durable)

let unlink t path =
  Unix.unlink path;
  match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          Hashtbl.remove st.written path;
          Hashtbl.remove st.durable path)

let exists _t path = Sys.file_exists path
let size _t path = (Unix.stat path).Unix.st_size
let readdir _t dir = Sys.readdir dir

let mkdir t path =
  (match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          if st.full then begin
            note st path "mkdir" Enospc;
            raise (Unix.Unix_error (Unix.ENOSPC, "mkdir", path))
          end));
  Unix.mkdir path 0o755

(* ------------------------------------------------------------------ *)
(* Read-side operations (always faithful: recovery must be able to     *)
(* trust what it reads, so faults are injected on the write path only) *)
(* ------------------------------------------------------------------ *)

let read_file _t path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Crash simulation                                                    *)
(* ------------------------------------------------------------------ *)

let crash t =
  match t with
  | Real -> ()
  | Faulty st ->
      locked st (fun () ->
          Hashtbl.iter
            (fun path written ->
              let durable =
                Option.value ~default:0 (Hashtbl.find_opt st.durable path)
              in
              if written > durable && Sys.file_exists path then begin
                let rng = stream st path in
                let keep =
                  if written - durable > 1 && Prng.chance rng st.disk.torn
                  then begin
                    (* Tear: a strict prefix of the lost tail survives,
                       splitting a framed record at a fuzzed offset. *)
                    let k = Prng.int_in rng 1 (written - durable - 1) in
                    note st path "crash" (Torn k);
                    durable + k
                  end
                  else durable
                in
                let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
                Unix.ftruncate fd keep;
                Unix.close fd
              end)
            st.written;
          Hashtbl.reset st.written;
          Hashtbl.reset st.durable)
