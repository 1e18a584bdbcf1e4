(* The traced replay: the workload's request stream run in-process, with
   no server, on the same generated dataset, at two tiers, with a span
   around every call into a layer. Spans are recorded from this file only;
   the engine carries no instrumentation for them.

   - Facade tier: an embedded Database, with spans around the Rx_wire codec
     calls a server would make, a cold Database.prepare, run_prepared and
     serialization; writes are an explicit begin, the staged insert or
     delete, and commit.
   - Engine tier: the layer modules assembled by hand (Pager -> Buffer_pool
     -> Doc_store with a hooked Value_index), with spans around XPath
     parsing, planning, the index probe, QuickXScan and serialization.

   A layer's self time is its spans' duration minus their children's. *)

open Util
open Systemrx

(* --- spans --- *)

type span = {
  id : int;
  name : string;
  req : int;  (* the request it belongs to; 0 outside requests *)
  parent : int;  (* -1 for a root *)
  tier : int;
  start_ns : int;
  mutable end_ns : int;
}

type tracer = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list;
  mutable req : int;
  mutable tier : int;
}

let tracer () = { spans = []; next = 0; stack = []; req = 0; tier = 0 }

type sp = { sp : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { sp = (fun _ f -> f ()) }

let traced tr =
  let sp name f =
    let s =
      {
        id = tr.next; name; req = tr.req; tier = tr.tier;
        parent = (match tr.stack with p :: _ -> p | [] -> -1);
        start_ns = now_ns (); end_ns = 0;
      }
    in
    tr.next <- tr.next + 1;
    tr.spans <- s :: tr.spans;
    tr.stack <- s.id :: tr.stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- now_ns ();
        tr.stack <- List.tl tr.stack)
      f
  in
  { sp }

(* every backend call is one request: a root span with a fresh id *)
let request tr { sp } f =
  match tr with
  | None -> f ()
  | Some tr ->
      tr.req <- tr.req + 1;
      sp "request" f

(* --- facade tier --- *)

let codec { sp } req resp =
  sp "net.codec" (fun () ->
      ignore (Rx_wire.decode_request (Rx_wire.encode_request req));
      ignore (Rx_wire.decode_response (Rx_wire.encode_response (Rx_wire.Ok resp))))

(* [tr] absent: the same calls with no spans, for the untraced median *)
let facade ?tr db =
  let ({ sp } as s) = match tr with Some tr -> traced tr | None -> untraced in
  let table = Gen.table and column = Gen.column in
  let dict = Rx_xml.Name_dict.create () in
  let write req reply stage =
    request tr s (fun () ->
        let txn = Database.begin_txn db in
        let v = sp "write.stage" (fun () -> stage txn) in
        sp "write.commit" (fun () -> Database.commit db txn);
        codec s req (reply v);
        v)
  in
  {
    Loops.query =
      (fun xpath ->
        request tr s (fun () ->
            let p =
              sp "plan.compile" (fun () ->
                  Database.invalidate_plans db;
                  Database.prepare db ~table ~column ~xpath)
            in
            let r = sp "exec.run" (fun () -> Database.run_prepared db p) in
            let rows =
              sp "serialize" (fun () ->
                  List.map (fun m -> (m.Database.docid, r.Database.serialize m)) r.matches)
            in
            let plan = r.plan.description in
            codec s
              (Rx_wire.Query { table; column; xpath; ns_env = [] })
              (Rx_wire.R_matches { plan; matches = rows });
            (plan, rows)));
    insert =
      (fun xml ->
        (* outside the request: how much of write.stage is XML parsing *)
        ignore (sp "xml.parse" (fun () -> Rx_xml.Parser.parse dict xml));
        write
          (Rx_wire.Insert { table; values = []; xml = [ (column, xml) ] })
          (fun docid -> Rx_wire.R_docid { docid })
          (fun txn -> Database.insert ~txn db ~table ~xml:[ (column, xml) ] ()));
    delete =
      (fun docid ->
        write (Rx_wire.Delete { table; docid }) (fun () -> Rx_wire.R_unit) (fun txn ->
            Database.delete ~txn db ~table ~docid));
  }

let load_facade ~dir ~spec docs =
  rm_rf dir;
  Served.create_table_in dir;
  let db = Database.open_dir dir in
  let docids =
    Served.load ~spec docs
      ~insert_many:(Database.insert_many db ~table:Gen.table ~column:Gen.column)
      ~build_index:(fun () ->
        ignore
          (Database.Index.await
             (Database.Index.build db ~table:Gen.table ~column:Gen.column
                ~name:Gen.index_name ~path:Gen.index_path
                ~key_type:Rx_xindex.Index_def.K_double)))
  in
  (db, docids)

(* --- engine tier --- *)

(* the engine's own pool size (Database.open_dir) *)
let pool_pages = 2048

let engine tr ~file ~(spec : Gen.spec) docs =
  let open Rx_xmlstore in
  let ({ sp } as s) = traced tr in
  let pool =
    Rx_storage.Buffer_pool.create ~capacity:pool_pages (Rx_storage.Pager.open_file file)
  in
  let dict = Rx_xml.Name_dict.create () in
  let store = Doc_store.create pool dict in
  let indexes =
    if spec.indexed then begin
      let def =
        Rx_xindex.Index_def.make ~name:Gen.index_name ~path:Gen.index_path
          ~key_type:Rx_xindex.Index_def.K_double
      in
      let idx = Rx_xindex.Value_index.create pool dict def in
      Rx_xindex.Value_index.hook idx store;
      [ idx ]
    end
    else []
  in
  let docids =
    Array.mapi
      (fun i (xml, _) ->
        Doc_store.insert_document store ~docid:(i + 1) xml;
        i + 1)
      docs
  in
  let all = Array.to_list docids in
  let serialize docid node =
    let tokens = ref [] in
    Doc_store.subtree_events store ~docid node (fun e ->
        tokens := e.Doc_store.token :: !tokens);
    Rx_xml.Serializer.to_string dict (List.rev !tokens)
  in
  let query xpath =
    request (Some tr) s (fun () ->
        let path =
          sp "xpath.parse" (fun () ->
              Rx_xpath.Rewrite.simplify (Rx_xpath.Xpath_parser.parse xpath))
        in
        let plan, q =
          sp "planner.plan" (fun () ->
              (Planner.plan ~indexes ~query:path, Rx_quickxscan.Query.compile dict path))
        in
        let candidates =
          sp "xindex.probe" (fun () -> Planner.execute_candidates ~indexes plan)
        in
        let matches =
          match (candidates, plan) with
          | `Anchors anchors, Planner.Index_access { exact = true; _ } -> anchors
          | _ ->
              let docs =
                match candidates with
                | `All -> all
                | `Docids d -> d
                | `Anchors a -> List.sort_uniq compare (List.map fst a)
              in
              sp "qxs.eval" (fun () ->
                  let ev = Executor.evaluator store q in
                  List.concat_map
                    (fun d -> List.map (fun n -> (d, n)) (Executor.eval_with ev ~docid:d))
                    docs)
        in
        let rows =
          sp "xmlstore.serialize" (fun () ->
              List.map (fun (d, n) -> (d, serialize d n)) matches)
        in
        (Planner.describe plan, rows))
  in
  let read_only _ = invalid_arg "the engine tier replays reads only" in
  ( { Loops.query; insert = read_only; delete = read_only },
    docids,
    fun () -> Rx_storage.Pager.close (Rx_storage.Buffer_pool.pager pool) )

(* --- replay and analysis --- *)

let for_seconds s =
  let until = now_ns () + int_of_float (s *. 1e9) in
  fun _ -> now_ns () >= until

let slices = 8

(* The facade replay: untraced and traced backends take turns over one
   request stream in [2 * slices] slices, so both see the same process
   state and their medians differ by the tracing overhead alone. A read
   workload's write probe follows, traced, as it follows the served
   window. *)
let replay_facade ~(spec : Gen.spec) ~seed ~model ~seconds db tr =
  let backends = [| facade db; facade ~tr db |] in
  let tallies = [| Loops.tally (); Loops.tally () |] in
  let log = Loops.churn_log () in
  let next = Gen.read_stream ~seed spec.kind model in
  for i = 0 to (2 * slices) - 1 do
    let k = i mod 2 in
    let until = now_ns () + int_of_float (seconds /. float_of_int (2 * slices) *. 1e9) in
    let stop _ = now_ns () >= until in
    match spec.kind with
    | Gen.Churn -> Loops.churn backends.(k) tallies.(k) ~seed ~conn:i ~model ~log ~stop ()
    | _ -> Loops.read_loop backends.(k) tallies.(k) ~model ~next ~stop
  done;
  if spec.kind <> Gen.Churn then Loops.write_probe backends.(1) tallies.(1) ~seed ~model ~log;
  (tallies.(0), tallies.(1))

type layers = {
  self_us : (string * float) list;  (* mean self time per request touching the layer *)
  coverage : float;  (* share of request time inside a layer span *)
  unattributed_us : float;  (* mean request self time *)
  spans : span list;
}

let analyse (tr : tracer) =
  let spans = Array.of_list (List.rev tr.spans) in
  let child_ns = Array.make (Array.length spans) 0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        child_ns.(s.parent) <- child_ns.(s.parent) + (s.end_ns - s.start_ns))
    spans;
  let self = Hashtbl.create 16 and reqs = Hashtbl.create 16 in
  let req_total = ref 0 and req_self = ref 0 and n_req = ref 0 in
  Array.iter
    (fun s ->
      let self_ns = s.end_ns - s.start_ns - child_ns.(s.id) in
      if s.name = "request" then begin
        incr n_req;
        req_total := !req_total + (s.end_ns - s.start_ns);
        req_self := !req_self + self_ns
      end
      else begin
        Hashtbl.replace self s.name
          (self_ns + Option.value ~default:0 (Hashtbl.find_opt self s.name));
        Hashtbl.replace reqs (s.name, s.tier, s.req) ()
      end)
    spans;
  let per_req name =
    Hashtbl.fold (fun (n, _, _) () acc -> if n = name then acc + 1 else acc) reqs 0
  in
  {
    self_us =
      Hashtbl.fold
        (fun name ns acc ->
          (name, float_of_int ns /. 1e3 /. float_of_int (max 1 (per_req name))) :: acc)
        self [];
    coverage = 1. -. (float_of_int !req_self /. float_of_int (max 1 !req_total));
    unattributed_us = float_of_int !req_self /. 1e3 /. float_of_int (max 1 !n_req);
    spans = Array.to_list spans;
  }

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
   event per span, one thread per tier *)
let write_chrome path spans =
  let t0 = match spans with s :: _ -> s.start_ns | [] -> 0 in
  let ev s =
    Rx_obs.Json.Obj
      [
        ("name", str s.name); ("ph", str "X"); ("pid", num 1.);
        ("tid", num (float_of_int s.tier));
        ("ts", num (float_of_int (s.start_ns - t0) /. 1e3));
        ("dur", num (float_of_int (s.end_ns - s.start_ns) /. 1e3));
        ("args", Rx_obs.Json.Obj [ ("req", num (float_of_int s.req)) ]);
      ]
  in
  let oc = open_out path in
  output_string oc
    (Rx_obs.Json.to_string
       (Rx_obs.Json.Obj [ ("traceEvents", Rx_obs.Json.Arr (List.map ev spans)) ]));
  close_out oc

(* the device floor a commit's fsync cannot beat: 4 KiB write + fsync *)
let fsync_us ~dir ~n =
  let path = Filename.concat dir "fsync.probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let page = Bytes.make 4096 'x' in
  let samples =
    List.init n (fun _ ->
        let t0 = now_ns () in
        ignore (Unix.write fd page 0 4096);
        Unix.fsync fd;
        float_of_int (now_ns () - t0) /. 1e3)
  in
  Unix.close fd;
  Sys.remove path;
  median samples

type outcome = {
  layers : layers;
  embedded_read_p50_ms : float;  (* untraced facade replay *)
  traced_read_p50_ms : float;
  disk_fsync_us : float;
  wrong : int;
  failed : int;
  attempted : int;
}

(* [seconds] goes half to the facade tier (after a short untraced warm-up
   on another seed's stream) and a quarter to the engine tier's reads. *)
let run ~workdir ~(spec : Gen.spec) ~seed ~seconds ~trace_file =
  let docs = Gen.dataset ~seed ~docs:spec.docs in
  let dir = Filename.concat workdir (spec.name ^ "-embedded") in
  let db, docids = load_facade ~dir ~spec docs in
  let model = Gen.model_of ~docids docs in
  Loops.read_loop (facade db) (Loops.tally ()) ~model
    ~next:(Gen.read_stream ~seed:(seed + 1) spec.kind model)
    ~stop:(for_seconds (seconds /. 16.));
  let tr = tracer () in
  tr.tier <- 1;
  let plain, fac = replay_facade ~spec ~seed ~model ~seconds:(seconds /. 2.) db tr in
  Database.close db;
  rm_rf dir;
  let file = Filename.concat workdir (spec.name ^ "-engine.rxdb") in
  rm_rf file;
  tr.tier <- 2;
  let b, edocids, close = engine tr ~file ~spec docs in
  let eng = Loops.tally () in
  let emodel = Gen.model_of ~docids:edocids docs in
  Loops.read_loop b eng ~model:emodel ~next:(Gen.read_stream ~seed spec.kind emodel)
    ~stop:(for_seconds (seconds /. 4.));
  close ();
  rm_rf file;
  let layers = analyse tr in
  write_chrome trace_file layers.spans;
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 [ plain; fac; eng ] in
  {
    layers;
    embedded_read_p50_ms = median plain.reads;
    traced_read_p50_ms = median fac.reads;
    disk_fsync_us = fsync_us ~dir:workdir ~n:64;
    wrong = sum (fun t -> t.Loops.wrong);
    failed = sum (fun t -> t.Loops.failed);
    attempted = sum (fun t -> t.Loops.attempted);
  }
