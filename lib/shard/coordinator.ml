(* The shard coordinator: a ledger front-end that speaks the same SLW1
   wire protocol as a single-node server but owns no rows itself.

   Topology: N unmodified shard primaries (each a full Server with its
   own WAL, Database Ledger and digest machinery), one coordinator
   holding the {!Shard_map}. Clients connect to the coordinator as if it
   were a server; smart clients may instead fetch the map ([Shard_map])
   and talk to shard primaries directly, stamping requests with the map
   epoch so a stale map is refused ([wrong_shard]) rather than silently
   misrouted.

   Routing:
   - point statements (single-key INSERT, WHERE pk = literal
     SELECT/UPDATE/DELETE) go to the owning shard unchanged;
   - fan-out-safe SELECTs (single table, no aggregates / GROUP BY /
     ORDER BY / LIMIT / DISTINCT / subqueries) broadcast and concatenate;
   - multi-row INSERTs split per shard; non-point UPDATE/DELETE
     broadcast — each shard applies them to the rows it owns;
   - cross-shard writes run under two-phase commit: per-participant
     BEGIN + statements, then PREPARE all / log the decision / DECIDE
     all, with the decision log ({!Decision_log}) making the outcome
     durable across coordinator crashes (presumed abort before the
     decision record, re-delivery after it).

   Digest/verify: [Digest] fans out to every shard and publishes one
   {!Trusted_store.Aggregate_digest} (a Merkle root over the per-shard
   block hashes) to the coordinator's WORM store; [Verify] fans back out
   in parallel, feeding each shard its embedded digest and checking the
   aggregate root, so one trust anchor covers the whole deployment. *)

module Protocol = Wire.Protocol
module Client = Wire.Client
module Listener = Wire.Listener
module Value = Relation.Value
module Ast = Sqlexec.Ast
module Aggregate_digest = Trusted_store.Aggregate_digest

let point_before_decision = "coord.2pc.before_decision"
let point_after_decision = "coord.2pc.after_decision"
let state_point_prefix = "coord.state"

let () =
  Fault.register point_before_decision;
  Fault.register point_after_decision;
  Fault.Fsutil.register_atomic_points state_point_prefix

let failpoints = Listener.failpoints "coord"

type config = {
  host : string;
  port : int;
  dir : string;  (** coordinator state: shard map, schemas, decision log *)
  name : string;
  max_connections : int;
  idle_timeout : float;
  request_timeout : float;
  auth_secret : string option;
      (** shared-secret contents (the same file every shard holds):
          verifies client principal claims and re-authenticates them on
          the coordinator's own shard connections, so the principal a
          client proved here is the one every 2PC participant records *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7979;
    dir = ".";
    name = "coord";
    max_connections = 64;
    idle_timeout = 60.0;
    request_timeout = 30.0;
    auth_secret = None;
  }

type schema = { sc_columns : (string * string) list; sc_key : string list }

type counters = {
  mutable c_1pc : int;
  mutable c_2pc_commit : int;
  mutable c_2pc_abort : int;
  mutable c_wrong_shard : int;
  mutable c_resolved : int;  (** pending decisions delivered by recovery *)
}

(* An undelivered decision: [p_parts] still owes an ack. *)
type pending = { p_gid : string; mutable p_parts : int list; p_commit : bool }

type t = {
  cfg : config;
  listener : Listener.t;
  mutable map : Shard_map.t;
  schemas : (string, schema) Hashtbl.t;  (* lowercase name -> schema *)
  mu : Mutex.t;  (* map + schemas + state file *)
  dlog : Decision_log.t;
  dlog_mu : Mutex.t;  (* decision log + gid counter + pending list *)
  mutable next_gid : int;
  mutable pending : pending list;
  store : Trusted_store.Worm_store.t;
  ctr : counters;
  ctr_mu : Mutex.t;
}

type start_error = Listener.start_error =
  | Port_in_use of string
  | Startup of string

let start_error_to_string = Listener.start_error_to_string

let port t = Listener.port t.listener
let request_shutdown t = Listener.request_stop t.listener

let map t = Mutex.protect t.mu (fun () -> t.map)

let bump n f =
  Mutex.protect n.ctr_mu (fun () -> f n.ctr)

(* ------------------------------------------------------------------ *)
(* Durable coordinator state: shard map + schema registry *)

let state_path dir = Filename.concat dir "coord.json"

let state_json t =
  Sjson.Obj
    [
      ("map", Shard_map.to_json t.map);
      ( "schemas",
        Sjson.Obj
          (Hashtbl.fold
             (fun name sc acc ->
               ( name,
                 Sjson.Obj
                   [
                     ( "columns",
                       Sjson.List
                         (List.map
                            (fun (n, ty) ->
                              Sjson.Obj
                                [
                                  ("name", Sjson.String n);
                                  ("type", Sjson.String ty);
                                ])
                            sc.sc_columns) );
                     ( "key",
                       Sjson.List
                         (List.map (fun k -> Sjson.String k) sc.sc_key) );
                   ] )
               :: acc)
             t.schemas []
          |> List.sort compare) );
    ]

(* Caller holds [t.mu]. *)
let save_state_locked t =
  Fault.Fsutil.atomic_write ~point_prefix:state_point_prefix
    ~path:(state_path t.cfg.dir)
    (Sjson.to_string ~pretty:true (state_json t))

let load_state dir =
  let path = state_path dir in
  if not (Sys.file_exists path) then Ok None
  else
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Sjson.of_string contents with
    | exception Sjson.Parse_error e -> Error ("corrupt " ^ path ^ ": " ^ e)
    | json -> (
        match Shard_map.of_json (Sjson.member "map" json) with
        | Error e -> Error ("corrupt " ^ path ^ ": " ^ e)
        | Ok map -> (
            try
              let schemas =
                match Sjson.member "schemas" json with
                | Sjson.Obj fields ->
                    List.map
                      (fun (name, sj) ->
                        let columns =
                          match Sjson.member "columns" sj with
                          | Sjson.List items ->
                              List.map
                                (fun c ->
                                  ( Sjson.get_string (Sjson.member "name" c),
                                    Sjson.get_string (Sjson.member "type" c) ))
                                items
                          | _ -> failwith "schema without columns"
                        in
                        let key =
                          match Sjson.member "key" sj with
                          | Sjson.List items -> List.map Sjson.get_string items
                          | _ -> failwith "schema without key"
                        in
                        (name, { sc_columns = columns; sc_key = key }))
                      fields
                | _ -> []
              in
              Ok (Some (map, schemas))
            with Failure e | Invalid_argument e ->
              Error ("corrupt " ^ path ^ ": " ^ e)))

(* ------------------------------------------------------------------ *)
(* Startup *)

let gid_number gid =
  match String.index_opt gid 'g' with
  | Some 0 -> int_of_string_opt (String.sub gid 1 (String.length gid - 1))
  | _ -> None

(* Fold the decision log into the unfinished work it implies. Returns
   (gids needing a presumed-abort decision, undelivered decisions,
   next gid counter). *)
let recover_log records =
  let tbl : (string, int list * bool option * bool) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  let hi = ref 0 in
  List.iter
    (fun r ->
      (match r with
      | Decision_log.Start { gid; _ }
      | Decision_log.Decision { gid; _ }
      | Decision_log.End { gid } -> (
          match gid_number gid with
          | Some n when n > !hi -> hi := n
          | _ -> ()));
      match r with
      | Decision_log.Start { gid; participants } ->
          if not (Hashtbl.mem tbl gid) then begin
            Hashtbl.replace tbl gid (participants, None, false);
            order := gid :: !order
          end
      | Decision_log.Decision { gid; commit } -> (
          match Hashtbl.find_opt tbl gid with
          | Some (parts, _, ended) ->
              Hashtbl.replace tbl gid (parts, Some commit, ended)
          | None -> ())
      | Decision_log.End { gid } -> (
          match Hashtbl.find_opt tbl gid with
          | Some (parts, d, _) -> Hashtbl.replace tbl gid (parts, d, true)
          | None -> ()))
    records;
  let undecided = ref [] and undelivered = ref [] in
  List.iter
    (fun gid ->
      match Hashtbl.find tbl gid with
      | _, _, true -> ()
      | parts, None, false -> undecided := (gid, parts) :: !undecided
      | parts, Some commit, false ->
          undelivered := { p_gid = gid; p_parts = parts; p_commit = commit } :: !undelivered)
    (List.rev !order);
  (List.rev !undecided, List.rev !undelivered, !hi + 1)

let start ?(config = default_config) ?(shards = []) () =
  Fault.Fsutil.mkdir_p config.dir;
  match load_state config.dir with
  | Error e -> Error (Startup e)
  | Ok prior -> (
      let map, schemas =
        match prior with
        | None -> (
            match shards with
            | [] -> (None, [])
            | l -> (Some (Shard_map.make ~epoch:1 l), []))
        | Some (m, schemas) -> (
            match shards with
            | [] -> (Some m, schemas)
            | l ->
                let fresh = Shard_map.make ~epoch:(Shard_map.epoch m) l in
                if Shard_map.equal_topology m fresh then (Some m, schemas)
                else
                  (* Topology changed: new generation, stale clients get
                     [wrong_shard] until they refresh. *)
                  (Some (Shard_map.with_epoch fresh (Shard_map.epoch m + 1)),
                   schemas))
      in
      match map with
      | None ->
          Error
            (Startup
               "no shard map: pass --shard HOST:PORT at least once on first \
                start")
      | Some map -> (
          match
            Decision_log.load ~path:(Filename.concat config.dir "coord.dlog")
          with
          | exception Decision_log.Corrupt e -> Error (Startup e)
          | records, dlog -> (
              let undecided, undelivered, next_gid = recover_log records in
              (* Presumed abort: a Start whose decision never hit the log
                 means the coordinator died inside the prepare round. Decide
                 abort *now*, before serving anything, so the outcome is
                 fixed no matter when the participants are reachable
                 again. *)
              List.iter
                (fun (gid, _) ->
                  Decision_log.append dlog
                    (Decision_log.Decision { gid; commit = false }))
                undecided;
              let pending =
                undelivered
                @ List.map
                    (fun (gid, parts) ->
                      { p_gid = gid; p_parts = parts; p_commit = false })
                    undecided
              in
              match
                Listener.bind
                  {
                    Listener.failpoints;
                    host = config.host;
                    port = config.port;
                    max_connections = config.max_connections;
                    max_frame = Wire.Frame.default_max_frame;
                    idle_timeout = config.idle_timeout;
                    request_timeout = config.request_timeout;
                  }
              with
              | Error e ->
                  Decision_log.close dlog;
                  Error e
              | Ok listener ->
                  let t =
                    {
                      cfg = config;
                      listener;
                      map;
                      schemas = Hashtbl.create 16;
                      mu = Mutex.create ();
                      dlog;
                      dlog_mu = Mutex.create ();
                      next_gid;
                      pending;
                      store =
                        Trusted_store.Worm_store.create
                          ~dir:(Filename.concat config.dir "worm")
                          ();
                      ctr =
                        {
                          c_1pc = 0;
                          c_2pc_commit = 0;
                          c_2pc_abort = 0;
                          c_wrong_shard = 0;
                          c_resolved = 0;
                        };
                      ctr_mu = Mutex.create ();
                    }
                  in
                  List.iter
                    (fun (name, sc) -> Hashtbl.replace t.schemas name sc)
                    schemas;
                  Mutex.protect t.mu (fun () -> save_state_locked t);
                  Ok t)))

let bump_epoch t =
  Mutex.protect t.mu (fun () ->
      t.map <- Shard_map.with_epoch t.map (Shard_map.epoch t.map + 1);
      save_state_locked t;
      Shard_map.epoch t.map)

let pending_decisions t =
  Mutex.protect t.dlog_mu (fun () ->
      List.map (fun p -> (p.p_gid, p.p_parts, p.p_commit)) t.pending)

(* ------------------------------------------------------------------ *)
(* Decision delivery (recovery resolver) *)

(* One delivery pass over the undelivered decisions: short-lived
   connections, so a shard that is down just stays owed. Returns the
   number of decisions still pending. *)
let resolve_pending t =
  let todo = Mutex.protect t.dlog_mu (fun () -> t.pending) in
  List.iter
    (fun p ->
      let owed = p.p_parts in
      let still =
        List.filter
          (fun i ->
            let host, port = Shard_map.address (map t) i in
            match
              Client.connect ~client:(t.cfg.name ^ "-resolver") ~host ~port ()
            with
            | Error _ -> true
            | Ok c ->
                let undelivered =
                  match
                    Client.call c
                      (Protocol.Decide { gid = p.p_gid; commit = p.p_commit })
                  with
                  | Ok Protocol.Ok_r -> false
                  | Ok _ | Error _ -> true
                in
                Client.close c;
                undelivered)
          owed
      in
      Mutex.protect t.dlog_mu (fun () ->
          p.p_parts <- still;
          if still = [] then begin
            Decision_log.append t.dlog (Decision_log.End { gid = p.p_gid });
            t.pending <- List.filter (fun q -> q != p) t.pending;
            bump t (fun c -> c.c_resolved <- c.c_resolved + 1)
          end))
    todo;
  Mutex.protect t.dlog_mu (fun () -> List.length t.pending)

(* ------------------------------------------------------------------ *)
(* Sessions *)

type session = {
  sid : int;
  mutable greeted : bool;
  mutable principal : string option;
      (* the identity this session authenticated at hello; forwarded on
         every shard connection the session opens, so the shards' ledgers
         record the end client, not the coordinator *)
  conns : (int, Client.t) Hashtbl.t;  (* shard -> dedicated connection *)
  mutable txn : int list option;  (* shards holding an open BEGIN *)
}

let err = Protocol.error

(* Dedicated per-session shard connections: an explicit transaction lives
   on the connection that opened it (the shard ties txn state to its
   session), so sessions must never share. *)
let session_conn t s i =
  match Hashtbl.find_opt s.conns i with
  | Some c -> Ok c
  | None -> (
      let host, port = Shard_map.address (map t) i in
      match
        Client.connect_retry
          ~client:(Printf.sprintf "%s/s%d" t.cfg.name s.sid)
          ?principal:s.principal ?secret:t.cfg.auth_secret ~max_attempts:4
          ~backoff_min:0.02 ~backoff_max:0.3 ~host ~port ()
      with
      | Ok c ->
          Hashtbl.replace s.conns i c;
          Ok c
      | Error e ->
          Error
            (Printf.sprintf "shard %d (%s:%d) unreachable: %s" i host port
               (Client.connect_error_to_string e)))

let scall t s i req =
  match session_conn t s i with
  | Error m -> Error m
  | Ok c -> (
      match Client.call c req with
      | Ok resp -> Ok resp
      | Error m ->
          (* Transport failure: the connection (and any txn state riding
             on it) is gone; drop it so the next use redials. *)
          Hashtbl.remove s.conns i;
          (try Client.close c with Sys_error _ | Unix.Unix_error _ -> ());
          Error (Printf.sprintf "shard %d: %s" i m))

let all_shards t = List.init (Shard_map.count (map t)) Fun.id

(* ------------------------------------------------------------------ *)
(* Statement routing *)

type route =
  | To_shard of int  (** forward the original SQL unchanged *)
  | Fanout_read  (** broadcast the SELECT, concatenate rows *)
  | Split_insert of (int * string) list  (** per-shard rewritten INSERTs *)
  | Broadcast_write  (** same statement on every shard, under 2PC *)
  | Unroutable of string

let lc = String.lowercase_ascii

let find_schema t name = Hashtbl.find_opt t.schemas (lc name)

let literal = function
  | Ast.Lit v -> Some v
  | Ast.Neg (Ast.Lit (Value.Int i)) -> Some (Value.Int (-i))
  | Ast.Neg (Ast.Lit (Value.Float f)) -> Some (Value.Float (-.f))
  | _ -> None

(* WHERE <pk> = <literal> (either side), on a single-column key. *)
let key_eq ~table_name ~key_col where =
  let table_ok = function
    | None -> true
    | Some a -> lc a = lc table_name
  in
  let accept ~table ~column e =
    if table_ok table && lc column = key_col then literal e else None
  in
  match where with
  | Some (Ast.Binop (Ast.Eq, Ast.Col { table; column }, e))
  | Some (Ast.Binop (Ast.Eq, e, Ast.Col { table; column })) ->
      accept ~table ~column e
  | _ -> None

(* Aggregates, window functions and subqueries make per-shard results
   non-concatenable; walk the expression tree looking for them. *)
let rec expr_fans_out = function
  | Ast.Agg _ | Ast.Window _ | Ast.Exists _ | Ast.Scalar_subquery _ -> true
  | Ast.Lit _ | Ast.Col _ -> false
  | Ast.Binop (_, a, b) -> expr_fans_out a || expr_fans_out b
  | Ast.Not e | Ast.Neg e -> expr_fans_out e
  | Ast.Is_null { subject; _ } -> expr_fans_out subject
  | Ast.Func (_, args) -> List.exists expr_fans_out args
  | Ast.In_list (e, args) -> expr_fans_out e || List.exists expr_fans_out args
  | Ast.Case { branches; else_ } ->
      List.exists (fun (c, v) -> expr_fans_out c || expr_fans_out v) branches
      || (match else_ with Some e -> expr_fans_out e | None -> false)
  | Ast.Like { subject; pattern; _ } ->
      expr_fans_out subject || expr_fans_out pattern
  | Ast.Between { subject; lo; hi; _ } ->
      expr_fans_out subject || expr_fans_out lo || expr_fans_out hi

let fanout_safe (q : Ast.select) =
  (not q.distinct) && q.group_by = [] && q.having = None && q.order_by = []
  && q.limit = None
  && (match q.from with Some (Ast.Table _) -> true | _ -> false)
  && List.for_all
       (function
         | Ast.Star -> true
         | Ast.Expr (e, _) -> not (expr_fans_out e))
       q.projections
  && (match q.where with Some w -> not (expr_fans_out w) | None -> true)

(* SQL literal printing, for the per-shard halves of a split INSERT. Only
   shapes the parser can itself produce are printed, so a reconstructed
   statement always re-parses. *)
let sql_of_value = function
  | Value.Null -> Some "NULL"
  | Value.Bool true -> Some "TRUE"
  | Value.Bool false -> Some "FALSE"
  | Value.Int i -> Some (string_of_int i)
  | Value.Float f ->
      if Float.is_finite f then Some (Printf.sprintf "%.17g" f) else None
  | Value.String s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''"
          else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Some (Buffer.contents buf)
  | Value.Datetime _ -> None

let route_insert t ~table ~columns ~rows =
  match find_schema t table with
  | None ->
      Unroutable
        (Printf.sprintf
           "unknown table %s: create it through the coordinator first" table)
  | Some sc -> (
      let cols =
        match columns with
        | Some cs -> List.map lc cs
        | None -> List.map (fun (n, _) -> lc n) sc.sc_columns
      in
      let key_pos =
        List.map
          (fun k ->
            let k = lc k in
            let rec find i = function
              | [] -> None
              | c :: _ when c = k -> Some i
              | _ :: rest -> find (i + 1) rest
            in
            find 0 cols)
          sc.sc_key
      in
      if List.exists Option.is_none key_pos then
        Unroutable
          (Printf.sprintf
             "INSERT into %s does not supply every key column; the \
              coordinator cannot route it"
             table)
      else
        let key_pos = List.map Option.get key_pos in
        let shard_of_row row =
          let cells = Array.of_list row in
          let key =
            List.map
              (fun p ->
                if p >= Array.length cells then None else literal cells.(p))
              key_pos
          in
          if List.exists Option.is_none key then None
          else
            Some
              (Shard_map.shard_of_key (map t) ~table
                 (List.map Option.get key))
        in
        match
          List.fold_left
            (fun acc row ->
              match (acc, shard_of_row row) with
              | Error e, _ -> Error e
              | Ok groups, Some i ->
                  let prev =
                    match List.assoc_opt i groups with
                    | Some rs -> rs
                    | None -> []
                  in
                  Ok ((i, row :: prev) :: List.remove_assoc i groups)
              | Ok _, None ->
                  Error
                    "INSERT key values must be literals to route through \
                     the coordinator"
            )
            (Ok []) rows
        with
        | Error e -> Unroutable e
        | Ok [] -> Unroutable "INSERT with no rows"
        | Ok [ (i, _) ] -> To_shard i
        | Ok groups -> (
            (* Rebuild one INSERT per shard. Every cell must print as a
               literal; anything fancier only routes single-shard. *)
            let print_row row =
              let cells =
                List.map
                  (fun e ->
                    match literal e with
                    | Some v -> sql_of_value v
                    | None -> None)
                  row
              in
              if List.exists Option.is_none cells then None
              else
                Some
                  ("(" ^ String.concat ", " (List.map Option.get cells) ^ ")")
            in
            let header =
              Printf.sprintf "INSERT INTO %s (%s) VALUES " table
                (String.concat ", " cols)
            in
            let rebuilt =
              List.map
                (fun (i, rev_rows) ->
                  let printed = List.rev_map print_row rev_rows in
                  if List.exists Option.is_none printed then None
                  else
                    Some
                      ( i,
                        header
                        ^ String.concat ", " (List.map Option.get printed) ))
                groups
            in
            if List.exists Option.is_none rebuilt then
              Unroutable
                "cross-shard INSERT rows must be plain literals (no \
                 expressions or datetimes)"
            else
              Split_insert
                (List.sort compare (List.map Option.get rebuilt))))

let route_statement t stmt =
  match stmt with
  | Ast.Select q -> (
      match q.from with
      | Some (Ast.Table { name; alias; as_of = _ }) -> (
          let label = Option.value alias ~default:name in
          match find_schema t name with
          | Some { sc_key = [ key_col ]; _ } -> (
              match key_eq ~table_name:label ~key_col:(lc key_col) q.where with
              | Some v ->
                  To_shard (Shard_map.shard_of_key (map t) ~table:name [ v ])
              | None ->
                  if fanout_safe q then Fanout_read
                  else
                    Unroutable
                      "cross-shard SELECT supports only plain single-table \
                       scans (no aggregates, GROUP BY, ORDER BY, LIMIT, \
                       DISTINCT or subqueries); point it at one primary key \
                       or ask a shard directly")
          | Some _ | None ->
              if fanout_safe q then Fanout_read
              else
                Unroutable
                  "cross-shard SELECT supports only plain single-table scans; \
                   simplify the query or ask a shard directly")
      | _ ->
          if fanout_safe q then Fanout_read
          else
            Unroutable
              "cross-shard SELECT supports only plain single-table scans; \
               simplify the query or ask a shard directly")
  | Ast.Insert { table; columns; rows } -> route_insert t ~table ~columns ~rows
  | Ast.Update { table; assignments; where } -> (
      match find_schema t table with
      | None ->
          Unroutable
            (Printf.sprintf
               "unknown table %s: create it through the coordinator first"
               table)
      | Some sc ->
          if
            List.exists
              (fun (c, _) -> List.mem (lc c) (List.map lc sc.sc_key))
              assignments
          then
            Unroutable
              "UPDATE of a primary-key column would move the row between \
               shards; delete and re-insert instead"
          else (
            match sc.sc_key with
            | [ key_col ] -> (
                match key_eq ~table_name:table ~key_col:(lc key_col) where with
                | Some v ->
                    To_shard (Shard_map.shard_of_key (map t) ~table [ v ])
                | None -> Broadcast_write)
            | _ -> Broadcast_write))
  | Ast.Delete { table; where } -> (
      match find_schema t table with
      | None ->
          Unroutable
            (Printf.sprintf
               "unknown table %s: create it through the coordinator first"
               table)
      | Some { sc_key = [ key_col ]; _ } -> (
          match key_eq ~table_name:table ~key_col:(lc key_col) where with
          | Some v -> To_shard (Shard_map.shard_of_key (map t) ~table [ v ])
          | None -> Broadcast_write)
      | Some _ -> Broadcast_write)

(* ------------------------------------------------------------------ *)
(* Two-phase commit *)

let fresh_gid t =
  Mutex.protect t.dlog_mu (fun () ->
      let n = t.next_gid in
      t.next_gid <- n + 1;
      Printf.sprintf "g%d" n)

(* Commit the open transactions on [parts] atomically. The caller has
   already run the statements; this is the pure commit protocol:

     log Start -> PREPARE all -> log Decision -> DECIDE all -> log End

   A crash before the Decision record aborts by presumption; after it,
   the decision re-delivers via [resolve_pending]. Participants that
   voted no (or whose prepare never reached them) are told to abort and
   additionally rolled back, which is a no-op where the prepare never
   landed. *)
let two_phase_commit t s parts =
  let gid = fresh_gid t in
  Mutex.protect t.dlog_mu (fun () ->
      Decision_log.append t.dlog
        (Decision_log.Start { gid; participants = parts }));
  let votes =
    List.map
      (fun i ->
        match scall t s i (Protocol.Prepare { gid }) with
        | Ok Protocol.Ok_r -> Ok i
        | Ok (Protocol.Error_r { message; _ }) -> Error (i, message)
        | Ok _ -> Error (i, "unexpected reply to prepare")
        | Error m -> Error (i, m))
      parts
  in
  let commit = List.for_all Result.is_ok votes in
  (* Dying here is the classic coordinator failure: every participant is
     prepared (holding its shard's writer lock) and nobody knows the
     outcome until recovery logs the presumed abort. *)
  Fault.trip point_before_decision;
  Mutex.protect t.dlog_mu (fun () ->
      Decision_log.append t.dlog (Decision_log.Decision { gid; commit }));
  Fault.trip point_after_decision;
  let undelivered =
    List.filter
      (fun i ->
        match scall t s i (Protocol.Decide { gid; commit }) with
        | Ok Protocol.Ok_r -> false
        | Ok _ | Error _ -> true)
      parts
  in
  if not commit then
    (* Clear any transaction still open on a no-voting shard. *)
    List.iter
      (fun v ->
        match v with
        | Error (i, _) ->
            ignore (scall t s i Protocol.Rollback : (Protocol.response, string) result)
        | Ok _ -> ())
      votes;
  Mutex.protect t.dlog_mu (fun () ->
      if undelivered = [] then
        Decision_log.append t.dlog (Decision_log.End { gid })
      else
        t.pending <-
          { p_gid = gid; p_parts = undelivered; p_commit = commit }
          :: t.pending);
  bump t (fun c ->
      if commit then c.c_2pc_commit <- c.c_2pc_commit + 1
      else c.c_2pc_abort <- c.c_2pc_abort + 1);
  if commit then Ok ()
  else
    Error
      (String.concat "; "
         (List.filter_map
            (function
              | Error (i, m) -> Some (Printf.sprintf "shard %d: %s" i m)
              | Ok _ -> None)
            votes))

(* ------------------------------------------------------------------ *)
(* Statement execution *)

(* Open (or reuse) the explicit transaction on shard [i] for this
   session, returning the updated participant list. *)
let ensure_begun t s parts i =
  if List.mem i parts then Ok parts
  else
    match scall t s i Protocol.Begin with
    | Ok (Protocol.Txn_r _) -> Ok (i :: parts)
    | Ok (Protocol.Error_r { message; _ }) ->
        Error (Printf.sprintf "shard %d: %s" i message)
    | Ok _ -> Error (Printf.sprintf "shard %d: unexpected reply to begin" i)
    | Error m -> Error m

let affected_of = function
  | Protocol.Affected_r { rows; _ } -> Some rows
  | Protocol.Rows_r _ | Protocol.Ok_r -> Some 0
  | _ -> None

(* Cross-shard totals have no single transaction id to report. *)
let affected_r total = Protocol.Affected_r { rows = total; txn_id = None }

(* Run [stmts] (one per shard) transactionally across their shards:
   inside an explicit txn just fold them into it; in auto-commit wrap
   them in BEGIN..2PC. *)
let exec_transactional t s stmts =
  let run parts =
    List.fold_left
      (fun acc (i, sql) ->
        match acc with
        | Error _ -> acc
        | Ok (parts, total) -> (
            match ensure_begun t s parts i with
            | Error m -> Error m
            | Ok parts -> (
                match scall t s i (Protocol.Exec { sql }) with
                | Ok (Protocol.Error_r { message; _ }) ->
                    Error (Printf.sprintf "shard %d: %s" i message)
                | Ok resp -> (
                    match affected_of resp with
                    | Some n -> Ok (parts, total + n)
                    | None ->
                        Error
                          (Printf.sprintf "shard %d: unexpected reply" i))
                | Error m -> Error m)))
      (Ok (parts, 0)) stmts
  in
  match s.txn with
  | Some parts -> (
      match run parts with
      | Ok (parts, total) ->
          s.txn <- Some parts;
          affected_r total
      | Error m ->
          (* The statement failed mid-transaction; the client decides
             whether to roll back, exactly as on a single node. *)
          err Protocol.Exec_error "%s" m)
  | None -> (
      match run [] with
      | Ok ([], total) -> affected_r total
      | Ok (parts, total) -> (
          if List.length parts = 1 then (
            (* One shard after all: plain commit, no 2PC. *)
            let i = List.hd parts in
            match scall t s i Protocol.Commit with
            | Ok (Protocol.Txn_r _) ->
                bump t (fun c -> c.c_1pc <- c.c_1pc + 1);
                affected_r total
            | Ok (Protocol.Error_r { message; _ }) ->
                err Protocol.Exec_error "shard %d: %s" i message
            | Ok _ -> err Protocol.Internal "shard %d: unexpected reply" i
            | Error m -> err Protocol.Internal "%s" m)
          else
            match two_phase_commit t s parts with
            | Ok () -> affected_r total
            | Error m ->
                err Protocol.Exec_error "transaction aborted: %s" m)
      | Error m ->
          (* Roll back whatever opened; only shards this session already
             dialled can possibly hold a transaction. *)
          let touched = Hashtbl.fold (fun i _ acc -> i :: acc) s.conns [] in
          List.iter
            (fun i ->
              ignore
                (scall t s i Protocol.Rollback
                  : (Protocol.response, string) result))
            touched;
          err Protocol.Exec_error "%s" m)

(* Broadcast a read and concatenate the row sets. *)
let fanout_read t s sql =
  let shards = all_shards t in
  let results =
    List.map (fun i -> (i, scall t s i (Protocol.Query { sql }))) shards
  in
  let rec merge cols acc = function
    | [] -> Protocol.Rows_r { columns = cols; rows = List.concat (List.rev acc) }
    | (i, r) :: rest -> (
        match r with
        | Ok (Protocol.Rows_r { columns; rows }) ->
            let cols = if cols = [] then columns else cols in
            merge cols (rows :: acc) rest
        | Ok (Protocol.Error_r { message; _ }) ->
            err Protocol.Exec_error "shard %d: %s" i message
        | Ok _ -> err Protocol.Internal "shard %d: unexpected reply" i
        | Error m -> err Protocol.Internal "%s" m)
  in
  merge [] [] results

let exec_statement t s ~read_only sql =
  match Sqlexec.Parser.parse_statement sql with
  | exception Sqlexec.Parser.Parse_error m ->
      err Protocol.Parse_error "%s" m
  | exception Sqlexec.Lexer.Lex_error m -> err Protocol.Parse_error "%s" m
  | stmt -> (
      let is_select = match stmt with Ast.Select _ -> true | _ -> false in
      if read_only && not is_select then
        err Protocol.Exec_error "query only accepts SELECT"
      else
        match route_statement t stmt with
        | Unroutable m -> err Protocol.Exec_error "%s" m
        | To_shard i when is_select -> (
            match scall t s i (Protocol.Query { sql }) with
            | Ok resp -> resp
            | Error m -> err Protocol.Internal "%s" m)
        | To_shard i -> (
            match s.txn with
            | Some parts -> (
                match ensure_begun t s parts i with
                | Error m -> err Protocol.Exec_error "%s" m
                | Ok parts -> (
                    s.txn <- Some parts;
                    match scall t s i (Protocol.Exec { sql }) with
                    | Ok resp -> resp
                    | Error m -> err Protocol.Internal "%s" m))
            | None -> (
                (* Auto-commit point statement: the shard's own
                   auto-commit path is already atomic and durable. *)
                match scall t s i (Protocol.Exec { sql }) with
                | Ok resp ->
                    bump t (fun c -> c.c_1pc <- c.c_1pc + 1);
                    resp
                | Error m -> err Protocol.Internal "%s" m))
        | Fanout_read -> fanout_read t s sql
        | Split_insert stmts -> exec_transactional t s stmts
        | Broadcast_write ->
            exec_transactional t s
              (List.map (fun i -> (i, sql)) (all_shards t)))

(* ------------------------------------------------------------------ *)
(* Digest and verify fan-out *)

let aggregate_blob = "aggregate-digests"

let coordinator_digest t s =
  let m = map t in
  let shards = all_shards t in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | i :: rest -> (
        match scall t s i Protocol.Digest with
        | Ok (Protocol.Digest_r j) -> (
            match Sql_ledger.Digest.of_json j with
            | Ok d -> collect (d :: acc) rest
            | Error e -> Error (Printf.sprintf "shard %d: %s" i e))
        | Ok (Protocol.Error_r { message; _ }) ->
            Error (Printf.sprintf "shard %d: %s" i message)
        | Ok _ -> Error (Printf.sprintf "shard %d: unexpected reply" i)
        | Error m -> Error m)
  in
  match collect [] shards with
  | Error m -> err Protocol.Exec_error "aggregate digest failed: %s" m
  | Ok digests ->
      let agg =
        Aggregate_digest.of_shards ~epoch:(Shard_map.epoch m)
          ~digest_time:(Unix.gettimeofday ()) digests
      in
      let doc = Aggregate_digest.to_json agg in
      (match
         Trusted_store.Worm_store.append t.store ~blob:aggregate_blob
           (Sjson.to_string doc)
       with
      | Ok () -> ()
      | Error _ -> ());
      Protocol.Digest_r doc

(* Parallel per-shard verification against the aggregates' embedded
   digests, plus the aggregate roots themselves. Each worker gets its own
   connection — the whole point of the shard tree is that shards verify
   independently. *)
let coordinator_verify t ~tables ~digest_jsons =
  let aggregates =
    List.filter_map
      (fun j ->
        if Aggregate_digest.is_aggregate j then
          match Aggregate_digest.of_json j with
          | Ok a -> Some (Ok a)
          | Error e -> Some (Error e)
        else None)
      digest_jsons
  in
  match
    List.fold_left
      (fun acc a ->
        match (acc, a) with
        | Error e, _ -> Error e
        | Ok l, Ok a -> Ok (a :: l)
        | Ok _, Error e -> Error e)
      (Ok []) aggregates
  with
  | Error e -> err Protocol.Exec_error "%s" e
  | Ok [] ->
      err Protocol.Exec_error
        "verify through the coordinator needs at least one aggregate digest \
         (published by its digest command)"
  | Ok aggs -> (
      let aggs = List.rev aggs in
      let n = Shard_map.count (map t) in
      let root_violations =
        List.concat_map
          (fun a ->
            let v =
              match Aggregate_digest.check a with
              | Ok () -> []
              | Error e -> [ e ]
            in
            if Aggregate_digest.shard_count a <> n then
              Printf.sprintf
                "aggregate digest covers %d shards but the map has %d"
                (Aggregate_digest.shard_count a) n
              :: v
            else v)
          aggs
      in
      if root_violations <> [] then
        Protocol.Verify_r
          {
            vs_ok = false;
            vs_blocks = 0;
            vs_transactions = 0;
            vs_versions = 0;
            vs_violations = root_violations;
          }
      else
        let per_shard i =
          List.map
            (fun a -> Sql_ledger.Digest.to_json (List.nth a.Aggregate_digest.shards i))
            aggs
        in
        let results = Array.make n (Error "unreached") in
        let worker i =
          let host, port = Shard_map.address (map t) i in
          results.(i) <-
            (match
               Client.connect_retry ~client:(t.cfg.name ^ "-verify")
                 ~max_attempts:3 ~host ~port ()
             with
            | Error e ->
                Error
                  (Printf.sprintf "shard %d: %s" i
                     (Client.connect_error_to_string e))
            | Ok c ->
                let r =
                  match
                    Client.call c
                      (Protocol.Verify { tables; digests = per_shard i })
                  with
                  | Ok (Protocol.Verify_r v) -> Ok v
                  | Ok (Protocol.Error_r { message; _ }) ->
                      Error (Printf.sprintf "shard %d: %s" i message)
                  | Ok _ ->
                      Error (Printf.sprintf "shard %d: unexpected reply" i)
                  | Error m -> Error (Printf.sprintf "shard %d: %s" i m)
                in
                Client.close c;
                r)
        in
        let threads =
          List.map (fun i -> Thread.create worker i) (all_shards t)
        in
        List.iter Thread.join threads;
        let summary =
          Array.to_list results
          |> List.mapi (fun i r -> (i, r))
          |> List.fold_left
               (fun acc (i, r) ->
                 match r with
                 | Ok v ->
                     {
                       Protocol.vs_ok = acc.Protocol.vs_ok && v.Protocol.vs_ok;
                       vs_blocks = acc.Protocol.vs_blocks + v.Protocol.vs_blocks;
                       vs_transactions =
                         acc.Protocol.vs_transactions
                         + v.Protocol.vs_transactions;
                       vs_versions =
                         acc.Protocol.vs_versions + v.Protocol.vs_versions;
                       vs_violations =
                         acc.Protocol.vs_violations
                         @ List.map
                             (fun s -> Printf.sprintf "shard %d: %s" i s)
                             v.Protocol.vs_violations;
                     }
                 | Error m ->
                     {
                       acc with
                       Protocol.vs_ok = false;
                       vs_violations = acc.Protocol.vs_violations @ [ m ];
                     })
               {
                 Protocol.vs_ok = true;
                 vs_blocks = 0;
                 vs_transactions = 0;
                 vs_versions = 0;
                 vs_violations = [];
               }
        in
        Protocol.Verify_r summary)

(* ------------------------------------------------------------------ *)
(* DDL and admin *)

let create_table t s ~name ~columns ~key ~ledger =
  let apply () =
    let rec go = function
      | [] -> Ok ()
      | i :: rest -> (
          match
            scall t s i (Protocol.Create_table { name; columns; key; ledger })
          with
          | Ok Protocol.Ok_r -> go rest
          | Ok (Protocol.Error_r { message; _ }) ->
              Error (Printf.sprintf "shard %d: %s" i message)
          | Ok _ -> Error (Printf.sprintf "shard %d: unexpected reply" i)
          | Error m -> Error m)
    in
    go (all_shards t)
  in
  match find_schema t name with
  | Some _ ->
      err Protocol.Exec_error "table %s already exists on this deployment"
        name
  | None -> (
      match apply () with
      | Error m ->
          err Protocol.Exec_error
            "create_table %s did not reach every shard (%s); retry once all \
             shards are up"
            name m
      | Ok () ->
          Mutex.protect t.mu (fun () ->
              Hashtbl.replace t.schemas (lc name)
                {
                  sc_columns = List.map (fun (n, ty) -> (lc n, ty)) columns;
                  sc_key = List.map lc key;
                };
              save_state_locked t);
          Protocol.Ok_r)

let stats_lines t =
  let c = Mutex.protect t.ctr_mu (fun () -> t.ctr) in
  let m = map t in
  let pending = Mutex.protect t.dlog_mu (fun () -> List.length t.pending) in
  [
    Printf.sprintf "coord.epoch %d" (Shard_map.epoch m);
    Printf.sprintf "coord.shards %d" (Shard_map.count m);
    Printf.sprintf "coord.txn_1pc %d" c.c_1pc;
    Printf.sprintf "coord.txn_2pc_commit %d" c.c_2pc_commit;
    Printf.sprintf "coord.txn_2pc_abort %d" c.c_2pc_abort;
    Printf.sprintf "coord.wrong_shard %d" c.c_wrong_shard;
    Printf.sprintf "coord.decisions_resolved %d" c.c_resolved;
    Printf.sprintf "coord.decisions_pending %d" pending;
  ]

(* ------------------------------------------------------------------ *)
(* Request dispatch *)

let handle t s ~map_epoch req =
  match req with
  | Protocol.Hello { version; principal; auth; _ } -> (
      (* Same policy as a single node. The verified name is replayed on
         every shard handshake this session makes. *)
      match
        Protocol.accept_hello ~secret:t.cfg.auth_secret ~version ~principal
          ~auth
      with
      | Error refusal -> (refusal, `Close)
      | Ok verified ->
          s.greeted <- true;
          s.principal <- verified;
          ( Protocol.Welcome
              {
                version = Protocol.version;
                server = "sqlledger-coord/1.0";
                database = Printf.sprintf "sharded/%d" (Shard_map.count (map t));
              },
            `Keep ))
  | _ when not s.greeted ->
      (err Protocol.Bad_request "the first request must be hello", `Close)
  | Protocol.Ping -> (Protocol.Pong, `Keep)
  | Protocol.Shard_map ->
      let m = map t in
      ( Protocol.Shard_map_r
          { epoch = Shard_map.epoch m; shards = Shard_map.to_list m },
        `Keep )
  | Protocol.Quit -> (Protocol.Bye, `Close)
  | _ when
      (match map_epoch with
      | Some e -> e <> Shard_map.epoch (map t)
      | None -> false) ->
      (* Stale routing generation: refuse before any work so the retry
         (with a refreshed map) is always safe. *)
      bump t (fun c -> c.c_wrong_shard <- c.c_wrong_shard + 1);
      ( Protocol.Error_r
          {
            code = Protocol.Wrong_shard;
            message =
              Printf.sprintf "shard map epoch %d is stale (current %d)"
                (Option.value map_epoch ~default:(-1))
                (Shard_map.epoch (map t));
            retry_after_ms = None;
            map_epoch = Some (Shard_map.epoch (map t));
          },
        `Keep )
  | Protocol.Exec { sql } -> (exec_statement t s ~read_only:false sql, `Keep)
  | Protocol.Query { sql } -> (exec_statement t s ~read_only:true sql, `Keep)
  | Protocol.Begin -> (
      match s.txn with
      | Some _ ->
          (err Protocol.Txn_state "a transaction is already open", `Keep)
      | None ->
          (* Participants enlist lazily, at the first statement touching
             each shard. *)
          s.txn <- Some [];
          (Protocol.Txn_r { txn_id = None }, `Keep))
  | Protocol.Commit -> (
      match s.txn with
      | None -> (err Protocol.Txn_state "no transaction is open", `Keep)
      | Some [] ->
          s.txn <- None;
          (Protocol.Txn_r { txn_id = None }, `Keep)
      | Some [ i ] -> (
          s.txn <- None;
          match scall t s i Protocol.Commit with
          | Ok resp ->
              bump t (fun c -> c.c_1pc <- c.c_1pc + 1);
              (resp, `Keep)
          | Error m -> (err Protocol.Internal "%s" m, `Keep))
      | Some parts -> (
          s.txn <- None;
          match two_phase_commit t s parts with
          | Ok () -> (Protocol.Txn_r { txn_id = None }, `Keep)
          | Error m ->
              (err Protocol.Exec_error "transaction aborted: %s" m, `Keep)))
  | Protocol.Rollback -> (
      match s.txn with
      | None -> (err Protocol.Txn_state "no transaction is open", `Keep)
      | Some parts ->
          s.txn <- None;
          List.iter
            (fun i ->
              ignore
                (scall t s i Protocol.Rollback
                  : (Protocol.response, string) result))
            parts;
          (Protocol.Txn_r { txn_id = None }, `Keep))
  | Protocol.Digest -> (coordinator_digest t s, `Keep)
  | Protocol.Verify { tables; digests } ->
      (coordinator_verify t ~tables ~digest_jsons:digests, `Keep)
  | Protocol.Create_table { name; columns; key; ledger } ->
      (create_table t s ~name ~columns ~key ~ledger, `Keep)
  | Protocol.Checkpoint ->
      let rec go = function
        | [] -> Protocol.Ok_r
        | i :: rest -> (
            match scall t s i Protocol.Checkpoint with
            | Ok Protocol.Ok_r -> go rest
            | Ok (Protocol.Error_r { message; _ }) ->
                err Protocol.Exec_error "shard %d: %s" i message
            | Ok _ -> err Protocol.Internal "shard %d: unexpected reply" i
            | Error m -> err Protocol.Internal "%s" m)
      in
      (go (all_shards t), `Keep)
  | Protocol.Stats -> (Protocol.Stats_r (stats_lines t), `Keep)
  | Protocol.Receipt _ | Protocol.Receipts _ ->
      ( err Protocol.Bad_request
          "receipts are per shard (transaction ids are shard-local); fetch \
           the shard map and ask the owning shard",
        `Keep )
  | Protocol.Subscribe _ ->
      ( err Protocol.Bad_request
          "replication streams attach to shard primaries, not the \
           coordinator",
        `Keep )
  | Protocol.Prepare _ | Protocol.Decide _ ->
      ( err Protocol.Bad_request
          "2PC verbs are coordinator-to-shard only; this endpoint is the \
           coordinator",
        `Keep )
  | Protocol.Migrate _ ->
      ( err Protocol.Bad_request
          "migration is shard-local (tables and cursors live on one \
           primary); fetch the shard map and run `sqlledger migrate` \
           against the owning shard",
        `Keep )

(* ------------------------------------------------------------------ *)
(* Sessions, served by Wire.Listener *)

let cleanup_session t s =
  (* An interrupted session must not leave shards holding writer locks:
     roll back any open transaction before dropping the connections. *)
  (match s.txn with
  | Some parts ->
      List.iter
        (fun i ->
          ignore
            (scall t s i Protocol.Rollback : (Protocol.response, string) result))
        parts;
      s.txn <- None
  | None -> ());
  Hashtbl.iter
    (fun _ c ->
      try Client.close c with Sys_error _ | Unix.Unix_error _ -> ())
    s.conns;
  Hashtbl.reset s.conns

let handler t =
  {
    Listener.open_session =
      (fun sid ->
        {
          sid;
          greeted = false;
          principal = None;
          conns = Hashtbl.create 4;
          txn = None;
        });
    handle =
      (fun s ~deadline ~map_epoch req ->
        (* The envelope's deadline is checked once, before any shard is
           asked. Shard calls carry no budget: a call cut short on our
           side would still run on the shard, and a prepare or an
           in-transaction statement abandoned that way outlives the
           coordinator's view of it. *)
        match deadline with
        | Some at when Unix.gettimeofday () >= at ->
            ( err Protocol.Deadline_exceeded
                "request deadline expired before the coordinator began; no \
                 work was done",
              `Keep )
        | _ -> handle t s ~map_epoch req);
    hand_off = (fun _ () _ -> ());
    close_session = cleanup_session t;
    observe = (fun _ _ ~us:_ -> ());
  }

let run t =
  (* Background resolver: keep re-sending undelivered decisions until
     every participant has acked (a restarting shard picks its in-doubt
     transactions back up from its own WAL and then accepts these). *)
  let resolver =
    Thread.create
      (fun () ->
        while not (Listener.stopping t.listener) do
          (try
             if resolve_pending t > 0 then Thread.delay 0.3
             else Thread.delay 1.0
           with _ -> Thread.delay 1.0)
        done)
      ()
  in
  Listener.serve t.listener (handler t) ~after_drain:(fun () ->
      Thread.join resolver;
      Decision_log.close t.dlog)
